#pragma once
// Timing utilities.
//
// The simulated cluster runs many "GPU ranks" as threads on few cores, so
// wall-clock time on a rank thread is polluted by time-slicing. Compute
// phases are therefore measured with the per-thread CPU clock
// (CLOCK_THREAD_CPUTIME_ID), which only advances while *this* thread runs.
// Communication time is never measured; it is modeled from recorded traffic
// by simcomm::CostModel.

#include <chrono>

namespace sagnn {

/// Monotonic wall-clock timer (for whole-program / harness timing).
class WallTimer {
 public:
  WallTimer() { reset(); }
  void reset() { start_ = clock_t::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock_t::now() - start_).count();
  }

 private:
  using clock_t = std::chrono::steady_clock;
  clock_t::time_point start_;
};

/// Per-thread CPU-time timer; immune to oversubscription.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() { reset(); }
  void reset() { start_ = now(); }
  /// CPU seconds consumed by the calling thread since reset().
  double seconds() const { return now() - start_; }

  /// Current per-thread CPU time in seconds.
  static double now();

 private:
  double start_ = 0.0;
};

}  // namespace sagnn
