// The traced run's per-layer probes.  Each probe calls one module's
// public functions on a sample of the workload's own sentences and
// wraps every call in an obs::Span recorded from this benchmark's
// files; the per-layer metrics are then read back off the finished
// TraceSession, and the session is written as a Chrome trace that
// parsec_analyze reads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "fleet.h"
#include "grammars/toy_grammar.h"
#include "obs/trace.h"
#include "parsec/backend.h"

namespace perfbench {

class LayerProbes {
 public:
  /// `sample` holds the workload's own sentences (at most kSample are
  /// probed); results are checked against the plain-path reference and
  /// counted into `r`.
  LayerProbes(const Args& args, const parsec::grammars::CdgBundle& bundle,
              const parsec::engine::EngineSet& engines,
              std::vector<parsec::cdg::Sentence> sample, Result& r);

  static constexpr std::size_t kSample = 400;

  /// Before the TraceSession exists: untraced run_backend over the
  /// sample (per-sentence latency and BackendRun::stats counts; warms
  /// the network pool) and a warm-up of the batch parser.
  void untraced();

  /// Under the active session: the cdg, batch, serve, wire and net-hop
  /// probes.  For fleet_open, `fleet_pass` is the workload's own traced
  /// open loop and `traced_fleet` the (stopped) fleet that served it;
  /// for the others both are null, and a short open-loop burst of the
  /// sample goes through a traced fleet started here.
  void traced(const std::vector<Outcome>* fleet_pass,
              const Fleet* traced_fleet);

  /// Reads the layer times off the session, writes the trace file and
  /// sets every per-layer metric.  `traced_p50_ms`/`untraced_p50_ms`
  /// are the workload's own passes (obs.trace_overhead).
  void finish(const parsec::obs::TraceSession& session, double traced_p50_ms,
              double untraced_p50_ms);

 private:
  const Args& args_;
  const parsec::grammars::CdgBundle& bundle_;
  const parsec::engine::EngineSet& engines_;
  std::vector<parsec::cdg::Sentence> sample_;
  std::vector<std::vector<std::string>> words_;
  std::vector<std::uint64_t> reference_;
  Result& r_;

  parsec::engine::NetworkScratch scratch_;
  std::unique_ptr<parsec::cdg::BatchParser> batcher_;
  std::vector<std::vector<std::size_t>> batch_chunks_;  // sample indices

  double untraced_serial_ms_ = 0.0;  // mean run_backend per sentence
  parsec::engine::BackendStats stats_;
  double occupancy_ = 0.0;
  double fallback_share_ = 0.0;
  double cache_hit_ratio_ = -1.0;
  double send_lag_p99_ms_ = 0.0;
  double request_bytes_ = 0.0;
  double response_bytes_ = 0.0;
  std::vector<std::string> fleet_traces_;
};

}  // namespace perfbench
