#include "parsec/backend.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "maspar/cost_model.h"
#include "obs/trace.h"

namespace parsec::engine {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::Serial:
      return "serial";
    case Backend::Omp:
      return "omp";
    case Backend::Pram:
      return "pram";
    case Backend::Maspar:
      return "maspar";
    case Backend::Mesh:
      return "mesh";
  }
  return "?";
}

std::optional<Backend> backend_from_name(std::string_view name) {
  if (name == "serial" || name == "seq") return Backend::Serial;
  if (name == "omp") return Backend::Omp;
  if (name == "pram") return Backend::Pram;
  if (name == "maspar") return Backend::Maspar;
  if (name == "mesh") return Backend::Mesh;
  return std::nullopt;
}

BackendStats& BackendStats::operator+=(const BackendStats& o) {
  requests += o.requests;
  accepted += o.accepted;
  cancelled += o.cancelled;
  faulted += o.faulted;
  network += o.network;
  consistency_iterations += o.consistency_iterations;
  pram.time_steps += o.pram.time_steps;
  pram.max_processors = std::max(pram.max_processors, o.pram.max_processors);
  pram.total_work += o.pram.total_work;
  pram.write_conflicts += o.pram.write_conflicts;
  maspar += o.maspar;
  maspar_simulated_seconds += o.maspar_simulated_seconds;
  topo_time_steps += o.topo_time_steps;
  topo_elementwise_steps += o.topo_elementwise_steps;
  topo_reduction_steps += o.topo_reduction_steps;
  return *this;
}

cdg::Network& NetworkScratch::acquire(const cdg::Grammar& g,
                                      const cdg::Sentence& s,
                                      cdg::NetworkOptions opt) {
  const ShapeKey key{&g, s.size()};
  auto it = by_shape_.find(key);
  if (it != by_shape_.end() && it->second.reinit(s, opt)) {
    ++reuses_;
    return it->second;
  }
  if (it != by_shape_.end()) by_shape_.erase(it);
  auto [pos, inserted] = by_shape_.emplace(key, cdg::Network(g, s, opt));
  (void)inserted;
  return pos->second;
}

void NetworkScratch::purge(const cdg::Grammar* g) {
  for (auto it = by_shape_.begin(); it != by_shape_.end();) {
    if (it->first.grammar == g)
      it = by_shape_.erase(it);
    else
      ++it;
  }
}

std::size_t NetworkScratch::arena_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, net] : by_shape_) total += net.arena().bytes();
  return total;
}

std::uint64_t NetworkScratch::arena_allocations() const {
  std::uint64_t total = 0;
  for (const auto& [key, net] : by_shape_) total += net.arena().allocations();
  return total;
}

std::uint64_t NetworkScratch::arena_reinits() const {
  std::uint64_t total = 0;
  for (const auto& [key, net] : by_shape_) total += net.arena().reinits();
  return total;
}

EngineSet::EngineSet(const cdg::Grammar& g, EngineSetOptions opt)
    : grammar_(&g),
      opt_(opt),
      serial_(g, opt.serial),
      omp_(g, opt.omp),
      pram_(g, opt.pram),
      maspar_(g, opt.maspar),
      mesh_(g, Topology::Mesh2D, opt.mesh_filter_iterations) {}

std::uint64_t hash_domains(const std::vector<util::DynBitset>& domains) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;  // FNV prime
  };
  mix(domains.size());
  for (const auto& d : domains) {
    mix(d.size());
    for (std::size_t wi = 0; wi < d.word_count(); ++wi) mix(d.word_at(wi));
  }
  return h;
}

std::uint64_t hash_domains(const cdg::Network& net) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;  // FNV prime
  };
  const int R = net.num_roles();
  mix(static_cast<std::uint64_t>(R));
  for (int r = 0; r < R; ++r) {
    const util::ConstBitSpan d = net.domain(r);
    mix(d.size());
    for (std::size_t wi = 0; wi < d.word_count(); ++wi) mix(d.word_at(wi));
  }
  return h;
}

std::uint64_t hash_sentence(const cdg::Sentence& s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;  // FNV prime
  };
  mix(static_cast<std::uint64_t>(s.size()));
  for (const auto& w : s.words) {
    mix(w.size());
    for (unsigned char c : w) mix(c);
  }
  for (cdg::CatId c : s.cats) mix(static_cast<std::uint64_t>(c));
  return h;
}

namespace {

std::vector<util::DynBitset> net_domains(const cdg::Network& net) {
  std::vector<util::DynBitset> out;
  out.reserve(static_cast<std::size_t>(net.num_roles()));
  for (int r = 0; r < net.num_roles(); ++r) out.emplace_back(net.domain(r));
  return out;
}

void finish_from_network(BackendRun& run, const cdg::Network& net,
                         bool capture) {
  run.alive_role_values = net.total_alive();
  // Hash straight off the arena spans; domains are materialized only on
  // request (keeping the steady-state request path allocation-free).
  run.domains_hash = hash_domains(net);
  if (capture) run.domains = net_domains(net);
  run.stats.network += net.counters();
}

// Envelope-span names must be string literals (the tracer stores the
// pointer), so one per backend rather than a formatted string.
const char* backend_span_name(Backend b) {
  switch (b) {
    case Backend::Serial: return "backend.serial";
    case Backend::Omp: return "backend.omp";
    case Backend::Pram: return "backend.pram";
    case Backend::Maspar: return "backend.maspar";
    case Backend::Mesh: return "backend.mesh";
  }
  return "backend.?";
}

BackendRun run_backend_impl(const EngineSet& engines, Backend b,
                            const cdg::Sentence& s, NetworkScratch* scratch,
                            const cdg::CancelFn& cancel,
                            bool capture_domains);

}  // namespace

BackendRun run_backend(const EngineSet& engines, Backend b,
                       const cdg::Sentence& s, NetworkScratch* scratch,
                       const cdg::CancelFn& cancel, bool capture_domains) {
  obs::Span span(backend_span_name(b), "parse");
  BackendRun run =
      run_backend_impl(engines, b, s, scratch, cancel, capture_domains);
  if (span.active()) {
    span.arg("n", static_cast<std::int64_t>(s.size()));
    span.arg("accepted", static_cast<std::int64_t>(run.accepted ? 1 : 0));
    span.arg("effective_unary_evals",
             run.stats.network.effective_unary_evals());
    span.arg("effective_binary_evals",
             run.stats.network.effective_binary_evals());
    span.arg("eliminations", run.stats.network.eliminations);
    span.arg("consistency_iterations", run.stats.consistency_iterations);
    if (b == Backend::Maspar) {
      span.arg("plural_ops", run.stats.maspar.plural_ops);
      span.arg("scan_ops", run.stats.maspar.scan_ops);
      span.arg("route_ops", run.stats.maspar.route_ops);
      span.arg("simulated_seconds", run.stats.maspar_simulated_seconds);
    }
    if (b == Backend::Pram) span.arg("time_steps", run.stats.pram.time_steps);
    if (b == Backend::Mesh) {
      span.arg("time_steps", run.stats.topo_time_steps);
      span.arg("reduction_steps", run.stats.topo_reduction_steps);
    }
  }
  return run;
}

namespace {

BackendRun run_backend_impl(const EngineSet& engines, Backend b,
                            const cdg::Sentence& s, NetworkScratch* scratch,
                            const cdg::CancelFn& cancel,
                            bool capture_domains) {
  BackendRun run;
  run.stats.requests = 1;

  // A deadline that has already passed: refuse before any engine work.
  if (cancel && cancel()) {
    run.cancelled = true;
    run.stats.cancelled = 1;
    return run;
  }

  if (b == Backend::Maspar) {
    // The MasPar engine owns its PE-resident state; no host network.
    std::unique_ptr<MasparParse> parse;
    MasparResult r = engines.maspar().parse(s, parse, cancel);
    run.cancelled = r.cancelled;
    run.accepted = r.accepted;
    run.stats.consistency_iterations +=
        static_cast<std::uint64_t>(r.consistency_iterations);
    run.stats.maspar += r.stats;
    run.stats.maspar_simulated_seconds += r.simulated_seconds;
    run.stats.network.tile_sweeps += r.tile_sweeps;
    run.stats.network.simd_lane_words += r.lane_words;
    auto domains = parse->domains();
    run.alive_role_values = 0;
    for (const auto& d : domains) run.alive_role_values += d.count();
    run.domains_hash = hash_domains(domains);
    if (capture_domains) run.domains = std::move(domains);
    run.stats.accepted = run.accepted ? 1 : 0;
    run.stats.cancelled = run.cancelled ? 1 : 0;
    return run;
  }

  cdg::NetworkOptions nopt;
  nopt.prebuild_arcs = engines.options().serial.prebuild_arcs;
  NetworkScratch local;
  cdg::Network& net = (scratch ? *scratch : local)
                          .acquire(engines.grammar(), s, nopt);

  switch (b) {
    case Backend::Serial: {
      if (engines.options().serial_ac4) {
        // Propagate with cancel polls, then AC-4 filtering to the
        // fixpoint (same fixpoint as sweep filtering; confluent).
        const auto& p = engines.serial();
        bool aborted = false;
        for (std::size_t i = 0; i < p.compiled_unary().size(); ++i) {
          if (cancel && cancel()) {
            aborted = true;
            break;
          }
          p.step_unary(net, i);
        }
        for (std::size_t i = 0; !aborted && i < p.compiled_binary().size();
             ++i) {
          if (cancel && cancel()) {
            aborted = true;
            break;
          }
          p.step_binary(net, i);
        }
        if (!aborted) cdg::filter_ac4(net);
        run.cancelled = aborted;
        run.accepted = !aborted && net.all_roles_nonempty();
      } else {
        cdg::ParseResult r = engines.serial().parse(net, cancel);
        run.cancelled = r.cancelled;
        run.accepted = r.accepted;
        run.stats.consistency_iterations +=
            static_cast<std::uint64_t>(r.filter_sweeps_used);
      }
      break;
    }
    case Backend::Omp: {
      OmpResult r = engines.omp().parse(net, cancel);
      run.cancelled = r.cancelled;
      run.accepted = r.accepted;
      run.stats.consistency_iterations +=
          static_cast<std::uint64_t>(r.consistency_iterations);
      break;
    }
    case Backend::Pram: {
      PramResult r = engines.pram().parse(net, cancel);
      run.cancelled = r.cancelled;
      run.accepted = r.accepted;
      run.stats.consistency_iterations +=
          static_cast<std::uint64_t>(r.consistency_iterations);
      run.stats.pram = r.stats;
      break;
    }
    case Backend::Mesh: {
      TopoResult r = engines.mesh().parse(net, cancel);
      run.cancelled = r.cancelled;
      run.accepted = r.accepted;
      run.stats.consistency_iterations +=
          static_cast<std::uint64_t>(r.consistency_iterations);
      run.stats.topo_time_steps += r.time_steps;
      run.stats.topo_elementwise_steps += r.elementwise_steps;
      run.stats.topo_reduction_steps += r.reduction_steps;
      break;
    }
    case Backend::Maspar:
      break;  // handled above
  }

  finish_from_network(run, net, capture_domains);
  run.stats.accepted = run.accepted ? 1 : 0;
  run.stats.cancelled = run.cancelled ? 1 : 0;
  return run;
}

}  // namespace

std::vector<BackendRun> run_backend_batch(
    cdg::BatchParser& parser, std::span<const cdg::Sentence> sentences,
    bool capture_domains) {
  obs::Span span("backend.batch", "parse");
  std::vector<cdg::BatchLaneResult> lanes = parser.parse(sentences);
  std::vector<BackendRun> runs;
  runs.reserve(lanes.size());
  std::uint64_t tile_sweeps = 0;
  std::uint64_t lane_words = 0;
  for (cdg::BatchLaneResult& lane : lanes) {
    BackendRun run;
    run.stats.requests = 1;
    run.accepted = lane.accepted;
    run.stats.accepted = lane.accepted ? 1 : 0;
    run.alive_role_values = lane.alive_role_values;
    run.domains_hash = hash_domains(lane.domains);
    run.stats.network += lane.counters;
    run.stats.consistency_iterations =
        static_cast<std::uint64_t>(lane.consistency_iterations);
    tile_sweeps += lane.counters.tile_sweeps;
    lane_words += lane.counters.simd_lane_words;
    if (capture_domains) run.domains = std::move(lane.domains);
    runs.push_back(std::move(run));
  }
  if (span.active()) {
    span.arg("lanes", static_cast<std::int64_t>(sentences.size()));
    span.arg("n", sentences.empty()
                      ? std::int64_t{0}
                      : static_cast<std::int64_t>(sentences[0].size()));
    span.arg("tile_sweeps", tile_sweeps);
    span.arg("simd_lane_words", lane_words);
  }
  return runs;
}

StatsPublisher::StatsPublisher(obs::Registry* registry) {
  obs::Registry& reg = *registry;
  for (std::size_t i = 0; i < kNumBackends; ++i) {
    const std::string be = to_string(kAllBackends[i]);
    PerBackend& p = per_backend_[i];
    // `status` values are disjoint — every completed request lands in
    // exactly one — so sum(parsec_requests_total) aggregates correctly.
    p.accepted = &reg.counter("parsec_requests_total",
                              "Parse requests completed, by outcome.",
                              {{"backend", be}, {"status", "accepted"}});
    p.rejected = &reg.counter("parsec_requests_total",
                              "Parse requests completed, by outcome.",
                              {{"backend", be}, {"status", "rejected"}});
    p.cancelled = &reg.counter("parsec_requests_total",
                               "Parse requests completed, by outcome.",
                               {{"backend", be}, {"status", "cancelled"}});
    p.faulted = &reg.counter("parsec_requests_total",
                             "Parse requests completed, by outcome.",
                             {{"backend", be}, {"status", "faulted"}});
    p.effective_unary_evals = &reg.counter(
        "parsec_effective_unary_evals_total",
        "Unary constraint tests in plain-sweep units (masked decisions "
        "counted as if dispatched).",
        {{"backend", be}});
    p.effective_binary_evals = &reg.counter(
        "parsec_effective_binary_evals_total",
        "Binary constraint tests in plain-sweep units (2 per masked pair).",
        {{"backend", be}});
    p.masked_binary_pairs = &reg.counter(
        "parsec_masked_binary_pairs_total",
        "Arc pairs decided by truth masks without a VM dispatch.",
        {{"backend", be}});
    p.mask_build_evals = &reg.counter(
        "parsec_mask_build_evals_total",
        "Hoisted constraint evaluations spent building truth masks.",
        {{"backend", be}});
    p.eliminations =
        &reg.counter("parsec_eliminations_total",
                     "Role values removed from domains.", {{"backend", be}});
    p.arc_zeroings =
        &reg.counter("parsec_arc_zeroings_total",
                     "Arc-matrix bits cleared.", {{"backend", be}});
    p.support_checks =
        &reg.counter("parsec_support_checks_total",
                     "Support probes during consistency maintenance.",
                     {{"backend", be}});
    p.consistency_iterations = &reg.counter(
        "parsec_consistency_iterations_total",
        "Filtering sweeps/iterations run to the fixpoint.",
        {{"backend", be}});
    p.simd_tile_sweeps = &reg.counter(
        "parsec_simd_tile_sweeps_total",
        "Alive rows swept by the masked binary sweep "
        "(tier-independent).",
        {{"backend", be}});
    p.simd_lane_words = &reg.counter(
        "parsec_simd_lane_words_total",
        "64-bit row words processed by those row passes "
        "(tier-independent).",
        {{"backend", be}});
    p.latency = &reg.histogram("parsec_parse_duration_seconds",
                               "Wall-clock latency of one parse request.",
                               obs::default_latency_buckets_seconds(),
                               {{"backend", be}});
  }
  maspar_plural_ops_ = &reg.counter(
      "parsec_maspar_plural_ops_total",
      "ACU instruction broadcasts (weighted by per-PE unit cost).");
  maspar_scan_ops_ =
      &reg.counter("parsec_maspar_scan_ops_total",
                   "Segmented router scan invocations (scanOr/scanAnd).");
  maspar_route_ops_ = &reg.counter("parsec_maspar_route_ops_total",
                                   "General router gathers.");
  maspar_simulated_seconds_ = &reg.gauge(
      "parsec_maspar_simulated_seconds",
      "Calibrated MP-1 time accumulated by the cost model (seconds).");
  pram_time_steps_ = &reg.counter("parsec_pram_time_steps_total",
                                  "CRCW P-RAM parallel time steps.");
  topo_time_steps_ = &reg.counter("parsec_topo_time_steps_total",
                                  "Mesh topology-model time steps.");
  topo_reduction_steps_ =
      &reg.counter("parsec_topo_reduction_steps_total",
                   "Mesh topology-model reduction (communication) steps.");
  // The calibrated cost-model constants, exposed so a scrape is
  // self-describing: simulated_seconds can be recomputed from the raw
  // op counters and these two values (see docs/OBSERVABILITY.md).
  const maspar::CostModel cm = maspar::CostModel::mp1();
  reg.gauge("parsec_maspar_cost_t_instr_seconds",
            "Calibrated seconds per ACU instruction broadcast (MP-1).")
      .set(cm.t_instr);
  reg.gauge("parsec_maspar_cost_t_route_seconds",
            "Calibrated seconds per router stage of a log-time scan (MP-1).")
      .set(cm.t_route);
  // ISA dispatch tiers, exposed so a scrape records which kernels the
  // cost counters were produced under (0 = scalar, 1 = AVX2,
  // 2 = AVX-512; see cdg/simd.h).  Detected is the CPU's ceiling;
  // active folds in the PARSEC_SIMD env cap and any forced tier.
  reg.gauge("parsec_simd_detected_tier",
            "Widest SIMD tier the host CPU supports (0=scalar, 1=avx2, "
            "2=avx512).")
      .set(static_cast<double>(cdg::simd::detected_tier()));
  reg.gauge("parsec_simd_active_tier",
            "SIMD tier the sweep kernels dispatch to (0=scalar, 1=avx2, "
            "2=avx512; detected tier capped by PARSEC_SIMD / forced tier).")
      .set(static_cast<double>(cdg::simd::active_tier()));
}

void StatsPublisher::publish(Backend b, const BackendStats& delta,
                             double seconds) {
  PerBackend& p = per_backend_[static_cast<std::size_t>(b)];
  // accepted, cancelled and faulted are mutually exclusive (a run ends
  // exactly one way); whatever remains was parsed to rejection.
  const std::uint64_t resolved =
      delta.accepted + delta.cancelled + delta.faulted;
  p.accepted->inc(delta.accepted);
  p.cancelled->inc(delta.cancelled);
  p.faulted->inc(delta.faulted);
  p.rejected->inc(delta.requests > resolved ? delta.requests - resolved : 0);
  p.effective_unary_evals->inc(delta.network.effective_unary_evals());
  p.effective_binary_evals->inc(delta.network.effective_binary_evals());
  p.masked_binary_pairs->inc(delta.network.masked_binary_pairs);
  p.mask_build_evals->inc(delta.network.mask_build_evals);
  p.eliminations->inc(delta.network.eliminations);
  p.arc_zeroings->inc(delta.network.arc_zeroings);
  p.support_checks->inc(delta.network.support_checks);
  p.consistency_iterations->inc(delta.consistency_iterations);
  p.simd_tile_sweeps->inc(delta.network.tile_sweeps);
  p.simd_lane_words->inc(delta.network.simd_lane_words);
  if (seconds >= 0.0) p.latency->observe(seconds);
  if (b == Backend::Maspar) {
    maspar_plural_ops_->inc(delta.maspar.plural_ops);
    maspar_scan_ops_->inc(delta.maspar.scan_ops);
    maspar_route_ops_->inc(delta.maspar.route_ops);
    maspar_simulated_seconds_->add(delta.maspar_simulated_seconds);
  }
  if (b == Backend::Pram) pram_time_steps_->inc(delta.pram.time_steps);
  if (b == Backend::Mesh) {
    topo_time_steps_->inc(delta.topo_time_steps);
    topo_reduction_steps_->inc(delta.topo_reduction_steps);
  }
}

}  // namespace parsec::engine
