#pragma once
// Shared pieces of the benchmark driver: run options, the outcome record
// every workload fills, order statistics, and the span log of traced runs.
//
// Everything here measures from OUTSIDE the library: spans wrap calls into
// its public functions, never code inside it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int pool_threads = 1;  ///< host thread-pool size, min(4, nproc)
  int nproc = 1;
  std::string trace_file;  ///< where a traced run writes its spans
};

/// What one run reports. `e2e` holds the end-to-end metrics of an
/// untraced run, `layers` the per-layer metrics of a traced one, `report`
/// the workload-specific end-to-end figures of the printed report
/// (perfbench/metrics.json, "report_metrics").
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> e2e;
  std::map<std::string, double> report;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> notes;
  int ranks = 1;

  void fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
  /// Records `why` as a failure unless `ok`; returns ok.
  bool check(bool ok, const std::string& why) {
    if (!ok) fail(why);
    return ok;
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(rank, v.size()) - 1];
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Process CPU seconds (all threads).
double process_cpu_seconds();
/// Calling thread's CPU seconds.
double thread_cpu_seconds();
/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

/// The two clocks every timed operation is read on: wall-clock, and CPU
/// seconds of all the process's threads. The host of a virtual machine can
/// take its CPUs away for a while (steal time). That stretches wall-clock,
/// most of all for work that waits on several threads, but not CPU time,
/// which the guest kernel charges only while a thread really runs.
struct Cost {
  double wall = 0;
  double cpu = 0;

  Cost operator-(const Cost& o) const { return {wall - o.wall, cpu - o.cpu}; }
  Cost& operator+=(const Cost& o) {
    wall += o.wall;
    cpu += o.cpu;
    return *this;
  }
};

class Stopwatch {
 public:
  Stopwatch() : wall0_(Clock::now()), cpu0_(process_cpu_seconds()) {}
  Cost elapsed() const { return {seconds_since(wall0_), process_cpu_seconds() - cpu0_}; }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

/// One clock's readings out of a list of costs.
inline std::vector<double> on(const std::vector<Cost>& costs, double Cost::*clock) {
  std::vector<double> out;
  for (const Cost& c : costs) out.push_back(c.*clock);
  return out;
}

/// Untraced runs are split into kBlocks blocks, each starting from a fresh
/// set-up, so set-up and operation samples spread over the whole run (and
/// over whichever cores the scheduler moves the driver to) instead of
/// coming from one burst.
constexpr int kBlocks = 5;
/// Each block repeats its set-up until it has spent this share of the
/// block's budget: at least once, at most kMaxSetupReps times.
constexpr double kSetupShare = 0.03;
constexpr int kMaxSetupReps = 40;

/// The set-up phase of one block: release() the previous product
/// (untimed), then time build(); repeated per kSetupShare.
template <typename Release, typename Build>
void repeat_setup(Release&& release, Build&& build, double block_seconds,
                  std::vector<Cost>& samples, Outcome& out) {
  const auto t_block = Clock::now();
  for (int rep = 0; rep == 0 || (rep < kMaxSetupReps &&
                                 seconds_since(t_block) < kSetupShare * block_seconds);
       ++rep) {
    release();
    ++out.attempted;
    const Stopwatch watch;
    build();
    samples.push_back(watch.elapsed());
  }
}

/// Operation costs of an untraced run, one list per block, with the cost
/// of each block's whole timed loop.
struct Blocks {
  struct Block {
    std::vector<Cost> ops;
    Cost loop;
  };
  std::vector<Block> blocks;

  void start() { blocks.emplace_back(); }
  Block& current() { return blocks.back(); }

  std::vector<double> all(double Cost::*clock) const {
    std::vector<double> out;
    for (const Block& b : blocks) {
      for (const Cost& c : b.ops) out.push_back(c.*clock);
    }
    return out;
  }
  /// Median over blocks of each block's q-percentile: a slow spell of the
  /// host inside one or two blocks cannot move it.
  double percentile_median(double Cost::*clock, double q) const {
    std::vector<double> per_block;
    for (const Block& b : blocks) per_block.push_back(percentile(on(b.ops, clock), q));
    return median(per_block);
  }
  /// Median over blocks of each block's operations per loop second.
  double rate_median(double Cost::*clock) const {
    std::vector<double> per_block;
    for (const Block& b : blocks) {
      per_block.push_back(static_cast<double>(b.ops.size()) / (b.loop.*clock));
    }
    return median(per_block);
  }
  /// Each block's median in ms, for the run's notes: how much the host
  /// moved during the run.
  std::string describe_medians(double Cost::*clock) const {
    std::string out;
    for (const Block& b : blocks) {
      if (!out.empty()) out += ' ';
      out += std::to_string(median(on(b.ops, clock)) * 1e3);
    }
    return out + " ms";
  }
  /// Describes the tail estimates for the run's notes.
  std::string describe_tail(const char* percentile_name, const char* unit) const {
    std::size_t fewest = blocks.empty() ? 0 : blocks.front().ops.size();
    for (const Block& b : blocks) fewest = std::min(fewest, b.ops.size());
    return std::string(percentile_name) + " per block, median over " +
           std::to_string(blocks.size()) + " blocks of at least " + std::to_string(fewest) +
           " " + unit;
  }
};

/// One traced call: [start, end] on the steady clock (seconds from the
/// log's origin), the span that encloses it (-1 for a root), the rank
/// thread it ran on, and the thread CPU seconds it consumed where that is
/// meaningful (the propagate out-parameter; 0 otherwise).
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int rank = 0;
  int epoch = -1;
  double cpu = 0;

  double duration() const { return end - start; }
};

/// In-memory span log for one thread. Spans nest by construction order;
/// nothing is written until the run ends.
class SpanLog {
 public:
  SpanLog(Clock::time_point origin, int rank) : origin_(origin), rank_(rank) {}

  int open(std::string name, int epoch) {
    Span s;
    s.name = std::move(name);
    s.start = now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.rank = rank_;
    s.epoch = epoch;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }
  void set_cpu(int id, double cpu) { spans_[static_cast<std::size_t>(id)].cpu = cpu; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  Clock::time_point origin_;
  int rank_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log records nothing (the untraced path).
class Scoped {
 public:
  Scoped(SpanLog* log, std::string name, int epoch) : log_(log) {
    if (log_ != nullptr) id_ = log_->open(std::move(name), epoch);
  }
  ~Scoped() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_ = -1;
};

/// Unattributed share of the spans named `root`: summed self time (the
/// duration minus the part direct children cover) over summed duration. `gap` receives a description of the largest uncovered
/// interval between consecutive children, naming the calls around it.
double unattributed_share(const std::vector<Span>& spans, const std::string& root,
                          std::string* gap);

/// Writes every span as Chrome trace-event JSON (one track per rank).
void write_trace(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Training workloads: train-serial-reddit, train-1d-papers, train-15d-reddit.
bool is_training_workload(const std::string& name);
Outcome run_training(const Options& opt);
/// Serving workload: serve-amazon.
Outcome run_serving(const Options& opt);

}  // namespace perfbench
