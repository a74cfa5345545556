// Timer sanity: monotonicity and that the thread-CPU clock tracks work done
// by this thread only.
#include <gtest/gtest.h>

#include <thread>

#include "common/timer.hpp"

namespace sagnn {
namespace {

TEST(WallTimer, AdvancesAndResets) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i * 0.5;
  const double a = t.seconds();
  EXPECT_GT(a, 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), a + 1.0);
}

TEST(ThreadCpuTimer, CountsOwnWork) {
  ThreadCpuTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += i * 0.5;
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(ThreadCpuTimer, IgnoresOtherThreadsWork) {
  ThreadCpuTimer t;
  std::thread busy([] {
    volatile double sink = 0;
    for (int i = 0; i < 5000000; ++i) sink += i;
  });
  busy.join();  // this thread mostly slept/blocked
  // The other thread's CPU time must not be charged here. Allow generous
  // slack for the join bookkeeping itself.
  EXPECT_LT(t.seconds(), 0.05);
}

}  // namespace
}  // namespace sagnn
