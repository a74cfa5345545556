// Benchmark driver: runs one workload once and writes its outcome as JSON.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --out <file> [--trace-file <file>]
//
// perfbench/run.py builds this binary and turns the outcome into the
// benchmark's report; run the driver directly only while debugging it.
// Exit codes: 0 measured and correct, 1 a correctness check failed,
// 2 bad arguments, 3 refused (not an optimised build).

#include <sched.h>

#include <cmath>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>

#include "bench.hpp"
#include "common/parallel.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch == '\n' ? ' ' : ch;
  }
  return out + "\"";
}

void write_map(std::ostream& os, const std::map<std::string, double>& m) {
  os << "{";
  const char* sep = "";
  for (const auto& [k, v] : m) {
    os << sep << json_string(k) << ": ";
    if (std::isfinite(v)) {
      os << v;
    } else {
      os << "null";
    }
    sep = ", ";
  }
  os << "}";
}

void write_outcome(std::ostream& os, const Options& opt, const Outcome& out) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"workload\": " << json_string(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"attempted\": " << out.attempted
     << ", \"failed\": " << out.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    os << (i ? ", " : "") << json_string(out.failures[i]);
  }
  os << "],\n \"e2e\": ";
  write_map(os, out.e2e);
  os << ",\n \"report\": ";
  write_map(os, out.report);
  os << ",\n \"layers\": ";
  write_map(os, out.layers);
  os << ",\n \"notes\": {";
  const char* sep = "";
  for (const auto& [k, v] : out.notes) {
    os << sep << json_string(k) << ": " << json_string(v);
    sep = ", ";
  }
  os << "},\n \"build\": {\"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
     << ", \"compiler\": " << json_string(std::string("g++ ") + __VERSION__)
     << ", \"pool_threads\": " << opt.pool_threads << ", \"ranks\": " << out.ranks
     << ", \"nproc\": " << opt.nproc << "}}\n";
}

/// Why this binary must not report timings, or empty when it may.
std::string refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (type == "Debug") return "Debug build";
  if (flags.find("-fsanitize") != std::string::npos) return "sanitizer build";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#ifndef __OPTIMIZE__
  return "unoptimised build";
#endif
  return "";
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--trace-file") {
      opt.trace_file = value;
    } else {
      std::cerr << "unknown option " << key << "\n";
      return 2;
    }
  }
  const bool training = perfbench::is_training_workload(opt.workload);
  if (out_path.empty() || (!training && opt.workload != "serve-amazon") ||
      opt.seconds <= 0) {
    std::cerr << "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <file> [--trace-file <file>]\n";
    return 2;
  }
  if (const std::string why = refusal(); !why.empty()) {
    std::cerr << "refusing to report timings from a " << why << "\n";
    return 3;
  }

  opt.nproc = nproc();
  opt.pool_threads = std::min(4, opt.nproc);
  sagnn::set_parallel_threads(opt.pool_threads);

  Outcome out;
  try {
    out = training ? perfbench::run_training(opt) : perfbench::run_serving(opt);
  } catch (const std::exception& e) {
    ++out.attempted;
    out.fail(std::string("exception: ") + e.what());
  }
  std::ofstream file(out_path);
  write_outcome(file, opt, out);
  file.close();
  if (!file) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  return out.failed == 0 ? 0 : 1;
}
