/// Tests of the payload buffer's allocation policy: small message buffers
/// recycle pool blocks instead of mapping pages, and an AddressSanitizer
/// build still reports reads of freed or overrun pooled bytes.

#include "comm/message.h"

#include <gtest/gtest.h>

#include <cstddef>

namespace rmcrt::comm {
namespace {

TEST(Buffer, SmallBufferCyclesMapNothingAfterWarmUp) {
  { Buffer warm(412); }
  const auto before = mem::MmapArena::stats().totalMapCalls;
  for (int i = 0; i < 1000; ++i) {
    Buffer b(412);
    b[411] = std::byte{1};
  }
  EXPECT_EQ(mem::MmapArena::stats().totalMapCalls - before, 0u);
}

TEST(Buffer, AsanReportsFreedAndOverrunPooledBytes) {
#if defined(__SANITIZE_ADDRESS__)
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const volatile std::byte* freed = nullptr;
  { Buffer b(412); freed = b.data(); }
  EXPECT_DEATH((void)freed[0], "use-after-poison");
  Buffer small(100);
  const volatile std::byte* data = small.data();
  EXPECT_DEATH((void)data[100], "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

}  // namespace
}  // namespace rmcrt::comm
