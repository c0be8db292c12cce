/// \file selftest.cc
/// Self-tests for the benchmark's own arithmetic (ledger.h): the
/// percentile rule, the span fold and failure accounting. Exits non-zero
/// on the first failed check. Run through `python3 perfbench/run.py
/// --self-test` or `ctest` in the benchmark's build directory.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "ledger.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void testPercentiles() {
  using perfbench::percentile;
  check(percentile(oneTo(10), 0.5) == 5.0, "median of 1..10 is 5");
  check(percentile(oneTo(100), 0.9) == 90.0, "p90 of 1..100 is 90");
  check(percentile(oneTo(100), 0.99) == 99.0, "p99 of 1..100 is 99");
  check(percentile(oneTo(15), 0.9) == 14.0, "p90 of 1..15 is 14");
  check(percentile({7.0}, 0.99) == 7.0, "single sample is every percentile");
  check(percentile({3.0, 1.0}, 0.0) == 1.0, "p0 is the minimum");
  check(std::isnan(percentile({}, 0.5)), "empty set gives NaN");
}

void testResolvedPercentile() {
  using perfbench::highestResolvedPercentile;
  using perfbench::samplesBeyond;
  check(samplesBeyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
  check(samplesBeyond(100, 0.99) == 1, "100 samples: 1 beyond p99");
  check(highestResolvedPercentile(19) == 0.0, "19 samples resolve nothing");
  check(highestResolvedPercentile(20) == 0.5, "20 samples resolve p50");
  check(highestResolvedPercentile(99) == 0.75, "99 samples resolve p75");
  check(highestResolvedPercentile(100) == 0.9, "100 samples resolve p90");
  check(highestResolvedPercentile(999) == 0.95, "999 samples resolve p95");
  check(highestResolvedPercentile(1000) == 0.99, "1000 samples resolve p99");
  check(highestResolvedPercentile(10000) == 0.999,
        "10000 samples resolve p99.9");
  check(highestResolvedPercentile(60, 20) == 0.5,
        "the minimum beyond is a parameter");
}

void testFold() {
  using perfbench::Span;
  // Thread 1: root [0,100) with children [10,30), [40,50) and [90,100),
  // and a grandchild [12,18) under the first. Thread 2: an unrelated span
  // [0,40) at the same times. Input order is not start order.
  const std::vector<Span> spans = {
      {1, 40, 10, "x", "b"},         {1, 0, 100, "bench", "root"},
      {1, 12, 6, "x", "grandchild"}, {1, 10, 20, "x", "a"},
      {1, 90, 10, "x", "c"},         {2, 0, 40, "x", "other"},
  };
  const std::vector<std::int64_t> self = perfbench::selfTimes(spans);
  check(self[1] == 60, "root self time subtracts its children only");
  check(self[3] == 14, "child self time subtracts its grandchild");
  check(self[2] == 6, "leaf self time is its duration");
  check(self[4] == 10, "a child ending with its parent is covered fully");
  check(self[5] == 40, "other threads do not nest into this one");

  // Partition: a root's self plus its descendants' self equals its
  // duration when the children nest properly.
  const std::vector<Span> nested = {
      {3, 0, 1000, "bench", "step"}, {3, 100, 300, "sched", "phase"},
      {3, 150, 100, "comm", "send"}, {3, 500, 400, "bench", "core:trace"},
      {3, 600, 200, "gpu", "sync"},
  };
  const std::vector<std::int64_t> s2 = perfbench::selfTimes(nested);
  std::int64_t sum = 0;
  for (auto v : s2) sum += v;
  check(sum == 1000, "self times of a nested tree sum to the root");
  check(s2[3] == 200, "wrapped action self excludes the sync wait");
}

void testTally() {
  perfbench::Tally t;
  check(t.errorRate() == 0.0, "nothing attempted is no error");
  for (int i = 0; i < 8; ++i) t.record(true);
  t.record(false);  // a rejected request
  t.record(true);
  check(t.attempted == 10 && t.failed == 1, "rejections count as failed");
  t.demote();  // an ok response that then differed from the oracle
  check(t.failed == 2, "an oracle mismatch moves an ok to failed");
  check(std::abs(t.errorRate() - 0.2) < 1e-15, "error rate is failed/attempted");
  perfbench::Tally full;
  full.record(false);
  full.demote();
  check(full.failed == 1, "demote never counts more failures than attempts");
}

void testJson() {
  using perfbench::number;
  check(number(0.1) == "0.1", "shortest round-trip digits");
  check(number(0.1 + 0.2) == "0.30000000000000004",
        "all significant digits kept");
  check(number(std::nan("")) == "null", "non-finite numbers become null");
  const std::string line =
      perfbench::JsonObject()
          .flag("correct", true)
          .count("attempted", 3)
          .obj("metrics", perfbench::metricsObject({{"qps", 2.5, "1/s"}}))
          .text();
  check(line ==
            "{\"correct\": true, \"attempted\": 3, \"metrics\": {\"qps\": "
            "{\"value\": 2.5, \"unit\": \"1/s\"}}}",
        "result line layout");
}

}  // namespace

int main() {
  testPercentiles();
  testResolvedPercentile();
  testFold();
  testTally();
  testJson();
  if (g_failures != 0) {
    std::cerr << g_failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test: all checks passed\n";
  return 0;
}
