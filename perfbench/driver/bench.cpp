#include "bench.hpp"

#include <sys/resource.h>

#include <ctime>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

namespace {

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one thread never overlap).
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration();
  }
  return self;
}

}  // namespace

double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double unattributed_share(const std::vector<Span>& spans, const std::string& root,
                          std::string* gap) {
  const std::vector<double> self = self_times(spans);
  double total = 0;
  double uncovered = 0;
  double widest = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != root) continue;
    total += spans[i].duration();
    uncovered += self[i];
    // Walk the direct children in start order (the log appends in order).
    std::string before = "start of " + root;
    double cursor = spans[i].start;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[j].parent != static_cast<int>(i)) continue;
      if (spans[j].start - cursor > widest) {
        widest = spans[j].start - cursor;
        *gap = "between " + before + " and " + spans[j].name;
      }
      cursor = spans[j].end;
      before = spans[j].name;
    }
    if (spans[i].end - cursor > widest) {
      widest = spans[i].end - cursor;
      *gap = "between " + before + " and end of " + root;
    }
  }
  return total > 0 ? uncovered / total : 0;
}

void write_trace(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  out << std::setprecision(12) << "{\"traceEvents\": [\n";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << s.rank
          << ", \"ts\": " << s.start * 1e6 << ", \"dur\": " << s.duration() * 1e6
          << ", \"args\": {\"epoch\": " << s.epoch << ", \"parent\": " << s.parent
          << ", \"cpu_us\": " << s.cpu * 1e6 << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
