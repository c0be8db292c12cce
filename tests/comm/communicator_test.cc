#include "comm/communicator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace rmcrt::comm {
namespace {

TEST(Communicator, SendThenRecvMatches) {
  Communicator world(2);
  const double payload = 3.14;
  world.isend(0, 1, 7, &payload, sizeof payload);
  double out = 0.0;
  Request r = world.irecv(1, 0, 7, &out, sizeof out);
  EXPECT_TRUE(r.test());
  EXPECT_DOUBLE_EQ(out, 3.14);
  EXPECT_EQ(r.source(), 0);
  EXPECT_EQ(r.tag(), 7);
  EXPECT_EQ(r.bytes(), sizeof payload);
}

TEST(Communicator, RecvThenSendCompletesAsynchronously) {
  Communicator world(2);
  int out = 0;
  Request r = world.irecv(1, 0, 5, &out, sizeof out);
  EXPECT_FALSE(r.test());
  const int v = 42;
  world.isend(0, 1, 5, &v, sizeof v);
  EXPECT_TRUE(r.test());
  EXPECT_EQ(out, 42);
}

TEST(Communicator, TagSelectsMessage) {
  Communicator world(2);
  const int a = 1, b = 2;
  world.isend(0, 1, 10, &a, sizeof a);
  world.isend(0, 1, 20, &b, sizeof b);
  int out = 0;
  Request r = world.irecv(1, 0, 20, &out, sizeof out);
  ASSERT_TRUE(r.test());
  EXPECT_EQ(out, 2);
  r = world.irecv(1, 0, 10, &out, sizeof out);
  ASSERT_TRUE(r.test());
  EXPECT_EQ(out, 1);
}

TEST(Communicator, AnySourceAnyTag) {
  Communicator world(3);
  const int v = 99;
  world.isend(2, 0, 33, &v, sizeof v);
  int out = 0;
  Request r = world.irecv(0, kAnySource, kAnyTag, &out, sizeof out);
  ASSERT_TRUE(r.test());
  EXPECT_EQ(out, 99);
  EXPECT_EQ(r.source(), 2);
  EXPECT_EQ(r.tag(), 33);
}

TEST(Communicator, FifoOrderPerSourceAndTag) {
  Communicator world(2);
  for (int i = 0; i < 10; ++i) world.isend(0, 1, 1, &i, sizeof i);
  for (int i = 0; i < 10; ++i) {
    int out = -1;
    Request r = world.irecv(1, 0, 1, &out, sizeof out);
    ASSERT_TRUE(r.test());
    EXPECT_EQ(out, i);
  }
}

TEST(Communicator, SelfSend) {
  Communicator world(1);
  const int v = 5;
  world.isend(0, 0, 0, &v, sizeof v);
  int out = 0;
  Request r = world.irecv(0, 0, 0, &out, sizeof out);
  ASSERT_TRUE(r.test());
  EXPECT_EQ(out, 5);
}

TEST(Communicator, StatsCountTraffic) {
  Communicator world(2);
  world.resetStats();
  const char data[100] = {};
  world.isend(0, 1, 0, data, sizeof data);
  char out[100];
  world.irecv(1, 0, 0, out, sizeof out);
  const CommStats s = world.stats();
  EXPECT_EQ(s.messagesSent, 1u);
  EXPECT_EQ(s.bytesSent, 100u);
  EXPECT_EQ(s.recvsPosted, 1u);
  EXPECT_EQ(s.unexpectedMessages, 1u);  // send arrived before recv posted
}

TEST(Communicator, BarrierSynchronizesRankThreads) {
  const int P = 8;
  Communicator world(P);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> ranks;
  for (int r = 0; r < P; ++r) {
    ranks.emplace_back([&, r] {
      phase1.fetch_add(1);
      world.barrier(r);
      if (phase1.load() != P) violated.store(true);
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_FALSE(violated.load());
}

TEST(Communicator, AllReduceSum) {
  const int P = 6;
  Communicator world(P);
  std::vector<double> results(P);
  std::vector<std::thread> ranks;
  for (int r = 0; r < P; ++r) {
    ranks.emplace_back(
        [&, r] { results[r] = world.allReduceSum(r, r + 1.0); });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < P; ++r) EXPECT_DOUBLE_EQ(results[r], 21.0);
}

TEST(Communicator, AllReduceMax) {
  const int P = 5;
  Communicator world(P);
  std::vector<double> results(P);
  std::vector<std::thread> ranks;
  for (int r = 0; r < P; ++r) {
    ranks.emplace_back(
        [&, r] { results[r] = world.allReduceMax(r, r * 1.5); });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < P; ++r) EXPECT_DOUBLE_EQ(results[r], 6.0);
}

TEST(Communicator, AllGatherDistributesBlocks) {
  const int P = 4;
  Communicator world(P);
  std::vector<std::vector<int>> results(P, std::vector<int>(P));
  std::vector<std::thread> ranks;
  for (int r = 0; r < P; ++r) {
    ranks.emplace_back([&, r] {
      const int mine = r * 10;
      world.allGather(r, &mine, sizeof mine, results[r].data());
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < P; ++r)
    for (int s = 0; s < P; ++s) EXPECT_EQ(results[r][s], s * 10);
}

TEST(Communicator, RepeatedCollectivesDoNotDeadlockOrCorrupt) {
  const int P = 4;
  Communicator world(P);
  std::atomic<bool> bad{false};
  std::vector<std::thread> ranks;
  for (int r = 0; r < P; ++r) {
    ranks.emplace_back([&, r] {
      for (int i = 0; i < 50; ++i) {
        double s = world.allReduceSum(r, 1.0);
        if (s != P) bad.store(true);
        int mine = r + i;
        std::vector<int> all(P);
        world.allGather(r, &mine, sizeof mine, all.data());
        for (int k = 0; k < P; ++k)
          if (all[k] != k + i) bad.store(true);
        world.barrier(r);
      }
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_FALSE(bad.load());
}

TEST(Communicator, ManyThreadsPointToPointStress) {
  // MPI_THREAD_MULTIPLE surface: several threads send/recv on behalf of
  // the same ranks concurrently.
  Communicator world(2);
  const int kMsgs = 2000;
  std::thread sender([&] {
    for (int i = 0; i < kMsgs; ++i) world.isend(0, 1, i % 7, &i, sizeof i);
  });
  std::atomic<int> received{0};
  std::vector<std::thread> receivers;
  std::vector<std::vector<int>> sink(4, std::vector<int>(kMsgs));
  for (int t = 0; t < 4; ++t) {
    receivers.emplace_back([&, t] {
      while (true) {
        const int got = received.fetch_add(1);
        if (got >= kMsgs) break;
        int out = -1;
        world.recv(1, 0, kAnyTag, &out, sizeof out);
        sink[t][got % kMsgs] = out;
      }
    });
  }
  sender.join();
  for (auto& t : receivers) t.join();
  SUCCEED();
}

TEST(Communicator, TruncatedReceiveKeepsCapacity) {
  Communicator world(2);
  const std::uint64_t big[4] = {1, 2, 3, 4};
  world.isend(0, 1, 0, big, sizeof big);
  std::uint64_t small[2] = {0, 0};
  Request r = world.irecv(1, 0, 0, small, sizeof small);
  ASSERT_TRUE(r.test());
  EXPECT_EQ(r.bytes(), sizeof small);
  EXPECT_EQ(small[0], 1u);
  EXPECT_EQ(small[1], 2u);
}

TEST(Communicator, RejectsNonPositiveSize) {
  for (int size : {0, -1, -16})
    EXPECT_THROW(Communicator{size}, std::invalid_argument) << size;
}

}  // namespace
}  // namespace rmcrt::comm
