#include "parsec/mesh_parser.h"

#include <algorithm>
#include <cmath>

#include "cdg/kernels.h"
#include "obs/trace.h"
#include "resil/fault_plan.h"
#include "topo/reduction.h"

namespace parsec::engine {

using cdg::EvalContext;
using cdg::FactoredConstraint;
using cdg::Network;

const char* to_string(Topology t) {
  switch (t) {
    case Topology::CrcwPram: return "CRCW P-RAM";
    case Topology::Mesh2D: return "2D Mesh";
    case Topology::CellularAutomaton2D: return "2D Cellular Automata";
    case Topology::TreeHypercube: return "Tree and Hypercube";
  }
  return "?";
}

TopologyParser::TopologyParser(const cdg::Grammar& g, Topology topo,
                               int filter_iterations)
    : grammar_(&g),
      topo_(topo),
      filter_iterations_(filter_iterations),
      unary_(factor_all(g.unary_constraints())),
      binary_(factor_all(g.binary_constraints())) {}

std::size_t TopologyParser::pes_for(int n) const {
  const std::size_t q = static_cast<std::size_t>(grammar_->num_roles());
  const std::size_t n4 = static_cast<std::size_t>(n) * n * n * n;
  switch (topo_) {
    case Topology::CrcwPram:
      return q * q * n4;
    case Topology::Mesh2D:
    case Topology::CellularAutomaton2D:
      return static_cast<std::size_t>(n) * n;
    case Topology::TreeHypercube: {
      const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 static_cast<double>(q * q * n4) / logn));
    }
  }
  return 1;
}

std::uint64_t TopologyParser::elementwise_cost(std::size_t items,
                                               std::size_t pes) const {
  return (items + pes - 1) / pes;
}

std::uint64_t TopologyParser::reduction_cost(std::size_t pes) const {
  switch (topo_) {
    case Topology::CrcwPram:
      return 1;  // concurrent-write OR/AND
    case Topology::Mesh2D:
    case Topology::CellularAutomaton2D:
      return topo::mesh_reduce_steps(pes);
    case Topology::TreeHypercube:
      return topo::hypercube_reduce_steps(pes);
  }
  return 1;
}

TopoResult TopologyParser::parse(Network& net,
                                 const cdg::CancelFn& cancel) const {
  TopoResult r;
  const std::size_t P = pes_for(net.n());
  r.pes = P;
  const std::size_t R = static_cast<std::size_t>(net.num_roles());
  const std::size_t D = static_cast<std::size_t>(net.domain_size());
  const std::size_t arc_elems = R * (R - 1) / 2 * D * D;

  auto charge_elem = [&](std::size_t items) {
    const std::uint64_t c = elementwise_cost(items, P);
    r.elementwise_steps += c;
    r.time_steps += c;
  };
  auto charge_reduce = [&]() {
    const std::uint64_t c = reduction_cost(P);
    r.reduction_steps += c;
    r.time_steps += c;
  };

  // CN construction: one elementwise pass over role values + arcs.
  charge_elem(R * D);
  charge_elem(arc_elems);
  net.build_arcs();

  const int Di = net.domain_size();
  auto flags = net.arena().rv_flags();

  // Unary constraints: one elementwise pass over role values each,
  // plus the zeroing pass for eliminated values.  Evaluation runs
  // host-side through the masked unary kernel; the charges model the
  // abstract machine, not the host shortcut.
  std::vector<int> victims;
  {
    obs::Span span("mesh.unary");
    const std::uint64_t steps_before = r.time_steps;
    for (const auto& c : unary_) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      charge_elem(R * D);
      charge_elem(arc_elems / std::max<std::size_t>(1, D));  // zeroing rows
      std::fill(flags.begin(), flags.end(), std::uint8_t{0});
      for (int role = 0; role < net.num_roles(); ++role)
        cdg::kernels::propagate_unary_masked(
            c, net.sentence(), net.indexer(), net.role_id_of(role),
            net.word_of_role(role), net.domain(role),
            flags.subspan(static_cast<std::size_t>(role) * Di, Di),
            cdg::kernels::MaskedCounters{});
      for (int role = 0; role < net.num_roles(); ++role) {
        victims.clear();
        for (int rv = 0; rv < Di; ++rv)
          if (flags[static_cast<std::size_t>(role) * Di + rv])
            victims.push_back(rv);
        net.eliminate_batch(role, victims);
      }
    }
    span.arg("time_steps", r.time_steps - steps_before);
  }

  // Binary constraints: one elementwise pass over arc elements each.
  {
    obs::Span span("mesh.binary");
    const std::uint64_t steps_before = r.time_steps;
    for (std::size_t ci = 0; !r.cancelled && ci < binary_.size(); ++ci) {
      const auto& c = binary_[ci];
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      charge_elem(arc_elems);
      net.ensure_masks(c, ci);
      // Row-pass accounting only: mesh cost stays with charge_elem, but
      // the host-side row passes are pinned per backend by the gate.
      cdg::kernels::MaskedCounters mc;
      mc.tile_sweeps = &net.counters().tile_sweeps;
      mc.lane_words = &net.counters().simd_lane_words;
      std::size_t zeroed = 0;
      for (int a = 0; a < net.num_roles(); ++a) {
        const cdg::kernels::FactoredMasks ma = net.masks(ci, a);
        for (int b = a + 1; b < net.num_roles(); ++b) {
          zeroed += static_cast<std::size_t>(cdg::kernels::sweep_binary_masked(
              c, net.sentence(), net.arena().arc(a, b), net.domain(a), ma,
              net.role_id_of(a), net.word_of_role(a), net.masks(ci, b),
              net.role_id_of(b), net.word_of_role(b), net.indexer(), mc));
        }
      }
      net.counters().arc_zeroings += zeroed;
      if (zeroed) net.arena().set_counts_valid(false);
    }
    span.arg("time_steps", r.time_steps - steps_before);
  }

  // Consistency maintenance + filtering: per iteration, one reduction
  // phase (the row ORs + role AND) and one elementwise zeroing pass.
  int iters = 0;
  {
    obs::Span span("mesh.filter");
    const std::uint64_t steps_before = r.time_steps;
    const std::uint64_t reductions_before = r.reduction_steps;
    while (!r.cancelled &&
           (filter_iterations_ < 0 || iters < filter_iterations_)) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      ++iters;
      charge_elem(arc_elems);
      charge_reduce();
      charge_elem(arc_elems);
      // Pre-state support semantics, as on the real machines: all roles'
      // support masks are filled before any elimination.
      for (int role = 0; role < net.num_roles(); ++role) net.support_mask(role);
      int swept = 0;
      for (int role = 0; role < net.num_roles(); ++role) {
        victims.clear();
        const util::ConstBitSpan sup =
            static_cast<const cdg::NetworkArena&>(net.arena())
                .support_scratch(role);
        net.domain(role).for_each([&](std::size_t rv) {
          if (!sup.test(rv)) victims.push_back(static_cast<int>(rv));
        });
        swept += net.eliminate_batch(role, victims);
      }
      if (swept == 0) break;
    }
    span.arg("iterations", iters);
    span.arg("time_steps", r.time_steps - steps_before);
    span.arg("reduction_steps", r.reduction_steps - reductions_before);
  }
  r.consistency_iterations = iters;
  charge_reduce();  // acceptance AND over roles
  r.accepted = !r.cancelled && net.all_roles_nonempty();
  return r;
}

}  // namespace parsec::engine
