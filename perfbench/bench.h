// Shared plumbing of the perfbench binary (perfbench/README.md):
// run arguments, the result a workload hands back, timing and summary
// helpers, and the correctness reference.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analyze/json.h"
#include "cdg/grammar.h"
#include "cdg/lexicon.h"
#include "util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using parsec::analyze::JsonValue;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;  // holds parse_serverd / parse_router
  std::string out_dir;  // run artifacts (traces, daemon logs, reports)
  /// Self-test hook: corrupt one reference hash so the run must fail.
  bool plant_bad_hash = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the correctness verdict,
/// the request accounting, the metrics of the requested kind, and the
/// report sections (input properties, notes) printed before the result.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, JsonValue> report;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }

  /// Accounts one operation: `ok` false counts it as failed; an ok
  /// result whose hash differs from the reference makes the run wrong.
  void check(bool ok, std::uint64_t got, std::uint64_t want) {
    ++attempted;
    if (!ok) {
      ++failed;
    } else if (got != want) {
      correct = false;
      ++mismatches;
    }
  }
  std::uint64_t mismatches = 0;
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double median(std::vector<double> v) {
  parsec::util::Quantiles q;
  for (double x : v) q.add(x);
  return q.p50();
}

/// Peak resident set of a process in MiB, from /proc/<pid>/status
/// VmHWM ("self" for this process).  0 when unreadable.
double peak_rss_mb(const std::string& pid = "self");

/// Histogram of sentence lengths, as a JSON object {"n": count}.
JsonValue length_histogram(const std::vector<int>& lengths);

/// Reference domains_hash of every sentence, computed on the plain
/// per-pair path (ParseOptions::use_masks = false) with a fresh network
/// per sentence: no mask cache, no pooled arena, no SIMD tile sweep.
/// Runs on `threads` threads; outside every timed region.
std::vector<std::uint64_t> reference_hashes(
    const parsec::cdg::Grammar& g,
    const std::vector<parsec::cdg::Sentence>& sentences, int threads = 3);

/// The three workloads.  Each builds its own inputs from args.seed.
Result run_long_serial(const Args& args);
Result run_short_batched(const Args& args);
Result run_fleet_open(const Args& args);

}  // namespace perfbench
