// Machine-readable throughput reports (BENCH_throughput.json).
//
// Tiny purpose-built JSON emitter — the repo takes no dependencies —
// shared by bench_throughput and parse_server_demo so every perf PR can
// diff a served-traffic metric.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "serve/parse_service.h"

namespace parsec::serve {

/// One measured service configuration.
struct ThroughputRow {
  int threads = 0;
  std::size_t batch_size = 0;
  std::string backend;
  std::uint64_t sentences = 0;
  double wall_seconds = 0.0;
  double throughput_sps = 0.0;  // sentences / wall second
  double speedup = 0.0;         // vs the first (base) row
  double efficiency = 0.0;      // speedup * base threads / threads (1.0 =
                                // perfect scaling)
  ServiceStats stats;
};

/// Reference numbers captured on a past commit, embedded in the report
/// so a single BENCH_throughput.json carries its own before/after
/// comparison (the perf-smoke CI job diffs against these).
struct ThroughputBaseline {
  std::string captured;  // ISO date of the baseline run
  std::string commit;    // short description of the baseline revision
  double single_thread_sps = 0.0;
};

/// Duplicated-traffic sweep: the same request stream replayed through a
/// cache-off and a cache-on service (bench_throughput --dup-sweep).
/// The stream cycles `unique_sentences` distinct inputs over `requests`
/// total, so a 10%-unique stream measures the cache at a 90% duplicate
/// rate.  Runs single-threaded so the hit/miss counters are exact
/// (gateable), not a racy split.
struct DupSweepResult {
  std::uint64_t requests = 0;
  std::uint64_t unique_sentences = 0;
  int threads = 1;
  std::string backend;
  double wall_off_seconds = 0.0;
  double wall_on_seconds = 0.0;
  double sps_off = 0.0;       // cache-off sentences / second
  double sps_on = 0.0;        // cache-on sentences / second
  double speedup = 0.0;       // sps_on / sps_off
  double hit_rate = 0.0;      // (hits + coalesced) / lookups
  ResultCache::Stats cache;   // cache-on run's counters
};

/// SoA lane-batching sweep: the same workload replayed through an
/// ordinary service and one with Options::enable_batching, both
/// single-threaded (bench_throughput, serial backend only).  The
/// batched service groups same-(grammar, length) requests into
/// interleaved lane batches, so `speedup` is the service-level win of
/// the SoA sweep kernels and `occupancy` is the mean lane fill.
struct BatchSweepResult {
  std::uint64_t requests = 0;
  int threads = 1;
  double wall_off_seconds = 0.0;  // enable_batching = false
  double wall_on_seconds = 0.0;   // enable_batching = true
  double sps_off = 0.0;
  double sps_on = 0.0;
  double speedup = 0.0;              // sps_on / sps_off
  std::uint64_t batches = 0;         // lane batches dispatched
  std::uint64_t batched_requests = 0;
  double occupancy = 0.0;  // batched_requests / (batches * kLanes)
};

/// Writes `{"workload": ..., "baseline": ..., "dup_sweep": ...,
/// "batch_sweep": ..., "rows": [...]}` to `os`.  `baseline` (if
/// non-null) embeds the pre-change reference throughput; each row then
/// also reports `vs_baseline` for the matching config.  `dup` (if
/// non-null) embeds the duplicated-traffic cache sweep; `soa` (if
/// non-null) embeds the SoA lane-batching sweep.
void write_throughput_report(std::ostream& os, const std::string& workload,
                             const std::vector<ThroughputRow>& rows,
                             const ThroughputBaseline* baseline = nullptr,
                             const DupSweepResult* dup = nullptr,
                             const BatchSweepResult* soa = nullptr);

/// Convenience: render ServiceStats as a human-readable multi-line
/// summary (demo CLI and smoke logs).
std::string render_service_stats(const ServiceStats& s);

}  // namespace parsec::serve
