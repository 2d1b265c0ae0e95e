#include "parsec/omp_parser.h"

#include <algorithm>
#include <chrono>

#include "cdg/kernels.h"
#include "obs/trace.h"
#include "resil/fault_plan.h"

#if defined(PARSEC_HAVE_OPENMP)
#include <omp.h>
#endif

namespace parsec::engine {

using cdg::FactoredConstraint;
using cdg::Network;

void OmpParser::apply_unary(Network& net, const FactoredConstraint& c) const {
  const int R = net.num_roles();
  const int D = net.domain_size();
  // Victim staging in the arena's rv_flags region: each worker writes
  // only its own roles' slices, so the marks are race-free.  Counters
  // are not charged inside the parallel region (this engine reports
  // work through wall-clock, not eval counts).
  auto flags = net.arena().rv_flags();
  std::fill(flags.begin(), flags.end(), std::uint8_t{0});
#if defined(PARSEC_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
  for (int role = 0; role < R; ++role) {
    cdg::kernels::propagate_unary_masked(
        c, net.sentence(), net.indexer(), net.role_id_of(role),
        net.word_of_role(role), net.domain(role),
        flags.subspan(static_cast<std::size_t>(role) * D, D),
        cdg::kernels::MaskedCounters{});
  }
  std::vector<int> victims;
  for (int role = 0; role < R; ++role) {
    victims.clear();
    for (int rv = 0; rv < D; ++rv)
      if (flags[static_cast<std::size_t>(role) * D + rv])
        victims.push_back(rv);
    net.eliminate_batch(role, victims);
  }
}

void OmpParser::apply_binary(Network& net, const FactoredConstraint& c,
                             std::size_t slot) const {
  net.build_arcs();
  // Mask build is serial (it writes the shared mask region once);
  // the sweeps that consume the masks are read-only on them.
  net.ensure_masks(c, slot);
  cdg::NetworkArena& arena = net.arena();
  // Partition by arc: each worker owns whole matrices, so writes never
  // race.
  const std::size_t A = arena.num_arcs();
  std::size_t zeroed_total = 0;
  // Row-pass accounting rides the existing reduction (this engine
  // otherwise reports work through wall-clock, not eval counts): each
  // worker charges thread-local row/lane-word accumulators, summed
  // after the barrier so the totals match the serial schedule
  // bit-for-bit.
  std::size_t tiles_total = 0, lanes_total = 0;
#if defined(PARSEC_HAVE_OPENMP)
#pragma omp parallel for schedule(dynamic) \
    reduction(+ : zeroed_total, tiles_total, lanes_total)
#endif
  for (std::size_t t = 0; t < A; ++t) {
    const auto [a, b] = arena.arc_pair(t);
    cdg::kernels::MaskedCounters mc;
    std::size_t tiles = 0, lanes = 0;
    mc.tile_sweeps = &tiles;
    mc.lane_words = &lanes;
    zeroed_total += static_cast<std::size_t>(cdg::kernels::sweep_binary_masked(
        c, net.sentence(), arena.arc(t), net.domain(a), net.masks(slot, a),
        net.role_id_of(a), net.word_of_role(a), net.masks(slot, b),
        net.role_id_of(b), net.word_of_role(b), net.indexer(), mc));
    tiles_total += tiles;
    lanes_total += lanes;
  }
  net.counters().tile_sweeps += tiles_total;
  net.counters().simd_lane_words += lanes_total;
  net.counters().arc_zeroings += zeroed_total;
  if (zeroed_total) arena.set_counts_valid(false);
}

int OmpParser::consistency_sweep(Network& net) const {
  net.build_arcs();
  const int R = net.num_roles();
  // Pre-state support masks, one per role, in parallel: every mask is
  // computed against the pre-sweep matrices (reads only; the arena's
  // support-scratch rows are disjoint per role).
#if defined(PARSEC_HAVE_OPENMP)
#pragma omp parallel for schedule(dynamic)
#endif
  for (int role = 0; role < R; ++role) {
    cdg::kernels::support_mask(net.arena(), role,
                               net.arena().support_scratch(role));
  }
  int eliminated = 0;
  std::vector<int> victims;
  for (int role = 0; role < R; ++role) {
    // Extract this role's victims before eliminate_batch clobbers the
    // scratch row; later roles' rows are untouched until their turn.
    victims.clear();
    const util::ConstBitSpan sup =
        static_cast<const cdg::NetworkArena&>(net.arena())
            .support_scratch(role);
    net.domain(role).for_each([&](std::size_t rv) {
      if (!sup.test(rv)) victims.push_back(static_cast<int>(rv));
    });
    eliminated += net.eliminate_batch(role, victims);
  }
  return eliminated;
}

OmpParser::OmpParser(const cdg::Grammar& g, OmpOptions opt)
    : grammar_(&g),
      opt_(opt),
      unary_(factor_all(g.unary_constraints())),
      binary_(factor_all(g.binary_constraints())) {}

OmpResult OmpParser::parse(Network& net, const cdg::CancelFn& cancel) const {
  const auto t0 = std::chrono::steady_clock::now();
#if defined(PARSEC_HAVE_OPENMP)
  if (opt_.threads > 0) omp_set_num_threads(opt_.threads);
#endif
  OmpResult r;
  net.build_arcs();
  {
    obs::Span span("omp.unary");
    for (const auto& c : unary_) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      apply_unary(net, c);
    }
  }
  {
    obs::Span span("omp.binary");
    for (std::size_t i = 0; !r.cancelled && i < binary_.size(); ++i) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      apply_binary(net, binary_[i], i);
    }
  }
  int iters = 0;
  {
    obs::Span span("omp.filter");
    while (!r.cancelled &&
           (opt_.filter_iterations < 0 || iters < opt_.filter_iterations)) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      ++iters;
      if (consistency_sweep(net) == 0) break;
    }
    span.arg("iterations", iters);
  }
  r.consistency_iterations = iters;
  r.accepted = !r.cancelled && net.all_roles_nonempty();
#if defined(PARSEC_HAVE_OPENMP)
  r.threads_used = omp_get_max_threads();
#endif
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

}  // namespace parsec::engine
