#include "cdg/network.h"

#include <cassert>
#include <stdexcept>

#include "cdg/kernels.h"
#include "obs/trace.h"

namespace parsec::cdg {

Network::Network(const Grammar& g, const Sentence& s, Options opt)
    : grammar_(&g),
      sentence_(s),
      indexer_(s.size(), g.num_labels()),
      opt_(opt) {
  if (s.size() <= 0) throw std::invalid_argument("empty sentence");
  const std::size_t num_binary = g.binary_constraints().size();
  arena_.reshape(num_roles(), domain_size(),
                 kernels::MaskCache::kSlotsPerConstraint * num_binary);
  mask_cache_.configure(num_binary);
  init_domains();
  if (opt.prebuild_arcs) build_arcs();
}

void Network::init_domains() {
  const Grammar& g = *grammar_;
  const int R = num_roles();
  // Initial domains (paper §1.2, Fig. 1): every (label, modifiee) pair
  // such that the label is legal for the role (table T, refined by the
  // word's category) and the modifiee is not the word itself.
  for (int role = 0; role < R; ++role) {
    util::BitSpan d = arena_.domain(role);
    d.reset_all();
    const WordPos w = word_of_role(role);
    const RoleId rid = role_id_of(role);
    const CatId cat = sentence_.cat_at(w);
    for (LabelId l = 0; l < g.num_labels(); ++l) {
      if (!g.label_allowed(rid, cat, l)) continue;
      // Label-major rv axis: label l's modifiees are one contiguous
      // run.  Set the whole run word-wise, then carve out m == w (no
      // word ever modifies itself).
      const auto lo =
          static_cast<std::size_t>(indexer_.encode(RoleValue{l, 0}));
      d.set_run(lo, lo + static_cast<std::size_t>(n()) + 1);
      d.reset(lo + static_cast<std::size_t>(w));
    }
  }
}

bool Network::reinit(const Sentence& s, Options opt) {
  if (s.size() != n()) return false;
  sentence_ = s;
  opt_ = opt;
  counters_ = NetworkCounters{};
  trace_ = nullptr;
  current_kind_ = TraceEvent::Kind::SupportElimination;
  current_cause_ = "consistency";
  clean_sweep_at_ = kNoCleanSweep;
  arena_.reinit();
  init_domains();
  arcs_built_ = false;
  if (opt_.prebuild_arcs) build_arcs();
  return true;
}

std::vector<RoleValue> Network::alive_values(int role) const {
  std::vector<RoleValue> out;
  domain(role).for_each(
      [&](std::size_t rv) { out.push_back(indexer_.decode(static_cast<int>(rv))); });
  return out;
}

void Network::build_arcs() {
  if (arcs_built_) return;
  fill_arcs();
  arcs_built_ = true;
}

void Network::fill_arcs() {
  const int R = num_roles();
  for (int ra = 0; ra < R; ++ra) {
    for (int rb = ra + 1; rb < R; ++rb) {
      util::BitMatrixView m = arena_.arc(ra, rb);
      m.reset_all();
      // Alive rows get a word-for-word copy of the partner's domain:
      // bit (i, j) is set iff both role values are alive.
      const util::ConstBitSpan db = domain(rb);
      domain(ra).for_each(
          [&](std::size_t i) { m.row_span(i).copy_from(db); });
    }
  }
  arena_.set_counts_valid(false);
}

util::ConstBitMatrixView Network::arc_matrix(int ra, int rb) const {
  assert(arcs_built_);
  return arena_.arc(ra, rb);
}

bool Network::arc_allows(int ra, int rv_a, int rb, int rv_b) const {
  assert(arcs_built_);
  if (ra < rb)
    return arena_.arc(ra, rb).test(static_cast<std::size_t>(rv_a),
                                   static_cast<std::size_t>(rv_b));
  return arena_.arc(rb, ra).test(static_cast<std::size_t>(rv_b),
                                 static_cast<std::size_t>(rv_a));
}

void Network::arc_forbid(int ra, int rv_a, int rb, int rv_b) {
  assert(arcs_built_);
  if (ra < rb)
    arena_.arc(ra, rb).reset(static_cast<std::size_t>(rv_a),
                             static_cast<std::size_t>(rv_b));
  else
    arena_.arc(rb, ra).reset(static_cast<std::size_t>(rv_b),
                             static_cast<std::size_t>(rv_a));
  ++counters_.arc_zeroings;
  arena_.set_counts_valid(false);
}

void Network::refresh_alive_cache() {
  const int R = num_roles();
  alive_off_.resize(static_cast<std::size_t>(R) + 1);
  alive_flat_.clear();
  bind_flat_.clear();
  for (int role = 0; role < R; ++role) {
    alive_off_[role] = alive_flat_.size();
    domain(role).for_each([&](std::size_t rv) {
      alive_flat_.push_back(static_cast<int>(rv));
      bind_flat_.push_back(binding(role, static_cast<int>(rv)));
    });
  }
  alive_off_[R] = alive_flat_.size();
}

int Network::apply_unary(const CompiledConstraint& c) {
  assert(c.arity == 1);
  current_kind_ = TraceEvent::Kind::UnaryElimination;
  // Assign in place (a conditional expression would materialize a
  // temporary string and put an allocation on the steady-state path).
  if (c.name.empty())
    current_cause_ = "unary constraint";
  else
    current_cause_.assign(c.name);
  int eliminated = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) {
    // Collect first: eliminating while iterating the bitset is fine for
    // bits we've already passed, but collecting keeps the sweep order
    // explicit and matches the parallel semantics (all checks see the
    // same pre-sweep state for a single constraint).
    victims_.clear();
    kernels::propagate_unary(c, sentence_, indexer_, role_id_of(role),
                             word_of_role(role), domain(role), victims_,
                             &counters_.unary_evals);
    eliminated += eliminate_batch(role, victims_);
  }
  return eliminated;
}

int Network::apply_binary(const CompiledConstraint& c) {
  assert(c.arity == 2);
  build_arcs();
  int zeroed = 0;
  const int R = num_roles();

  // Pre-decode alive bindings per role once; the pair loop is the hot
  // path (O(n^4) evaluations per constraint, paper §1.4).
  refresh_alive_cache();

  for (int ra = 0; ra < R; ++ra) {
    for (int rb = ra + 1; rb < R; ++rb) {
      zeroed += kernels::sweep_binary(
          c, sentence_, arena_.arc(ra, rb), alive_list(ra), binding_list(ra),
          alive_list(rb), binding_list(rb), &counters_.binary_evals);
    }
  }
  counters_.arc_zeroings += static_cast<std::size_t>(zeroed);
  if (zeroed) arena_.set_counts_valid(false);
  return zeroed;
}

int Network::apply_unary(const FactoredConstraint& c) {
  assert(c.arity == 1);
  current_kind_ = TraceEvent::Kind::UnaryElimination;
  if (c.name.empty())
    current_cause_ = "unary constraint";
  else
    current_cause_.assign(c.name);
  kernels::MaskedCounters mc;
  mc.vm_evals = &counters_.unary_evals;
  mc.masked = &counters_.masked_unary_decided;
  mc.build_evals = &counters_.mask_build_evals;
  int eliminated = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) {
    victims_.clear();
    kernels::propagate_unary_masked(c, sentence_, indexer_, role_id_of(role),
                                    word_of_role(role), domain(role), victims_,
                                    mc);
    eliminated += eliminate_batch(role, victims_);
  }
  return eliminated;
}

void Network::ensure_masks(const FactoredConstraint& c, std::size_t slot) {
  if (mask_cache_.built(arena_, slot)) return;  // hit: no span, no work
  obs::Span span("cdg.mask_build");
  const std::size_t evals = mask_cache_.ensure(arena_, c, slot, sentence_,
                                               indexer_, roles_per_word());
  counters_.mask_build_evals += evals;
  span.arg("slot", static_cast<std::int64_t>(slot));
  span.arg("build_evals", evals);
}

int Network::apply_binary(const FactoredConstraint& c, std::size_t slot,
                          bool apply_residual) {
  assert(c.arity == 2);
  build_arcs();
  ensure_masks(c, slot);
  kernels::MaskedCounters mc;
  mc.vm_evals = &counters_.binary_evals;
  mc.masked = &counters_.masked_binary_pairs;
  mc.tile_sweeps = &counters_.tile_sweeps;
  mc.lane_words = &counters_.simd_lane_words;
  int zeroed = 0;
  const int R = num_roles();
  for (int ra = 0; ra < R; ++ra) {
    const kernels::FactoredMasks ma = masks(slot, ra);
    for (int rb = ra + 1; rb < R; ++rb) {
      zeroed += kernels::sweep_binary_masked(
          c, sentence_, arena_.arc(ra, rb), domain(ra), ma, role_id_of(ra),
          word_of_role(ra), masks(slot, rb), role_id_of(rb), word_of_role(rb),
          indexer_, mc, apply_residual);
    }
  }
  counters_.arc_zeroings += static_cast<std::size_t>(zeroed);
  if (zeroed) arena_.set_counts_valid(false);
  return zeroed;
}

void Network::eliminate(int role, int rv) {
  util::BitSpan d = arena_.domain(role);
  if (!d.test(static_cast<std::size_t>(rv))) return;
  d.reset(static_cast<std::size_t>(rv));
  ++counters_.eliminations;
  if (trace_)
    trace_(TraceEvent{current_kind_, current_cause_, role,
                      indexer_.decode(rv)});
  arena_.set_counts_valid(false);
  if (!arcs_built_) return;
  kernels::zero_row_col(arena_, role, rv);
}

int Network::eliminate_batch(int role, std::span<const int> rvs) {
  if (rvs.empty()) return 0;
  util::BitSpan d = arena_.domain(role);
  int killed = 0;
  for (int rv : rvs) {
    if (!d.test(static_cast<std::size_t>(rv))) continue;
    d.reset(static_cast<std::size_t>(rv));
    ++counters_.eliminations;
    ++killed;
    if (trace_)
      trace_(TraceEvent{current_kind_, current_cause_, role,
                        indexer_.decode(rv)});
  }
  if (!killed) return 0;
  arena_.set_counts_valid(false);
  if (!arcs_built_) return killed;
  // Small batches: the fused column pass costs one word-row ANDN per
  // alive partner value regardless of batch size, so it only wins once
  // the batch exceeds the row width in words.
  if (rvs.size() <= d.word_count()) {
    for (int rv : rvs) kernels::zero_row_col(arena_, role, rv);
  } else {
    kernels::zero_rows_cols(arena_, role, rvs, arena_.support_scratch(role));
  }
  return killed;
}

bool Network::supported(int role, int rv) {
  assert(arcs_built_);
  ++counters_.support_checks;
  return kernels::supported(arena_, role, rv);
}

util::ConstBitSpan Network::support_mask(int role) {
  assert(arcs_built_);
  counters_.support_checks += domain(role).count();
  kernels::support_mask(arena_, role, arena_.support_scratch(role));
  return arena_.support_scratch(role);
}

int Network::consistency_step() {
  build_arcs();
  // Support can only be lost through eliminations or arc zeroings; if
  // neither counter moved since the last sweep that found nothing, this
  // sweep is provably a no-op.
  const std::uint64_t muts = counters_.eliminations + counters_.arc_zeroings;
  if (muts == clean_sweep_at_) return 0;
  current_kind_ = TraceEvent::Kind::SupportElimination;
  current_cause_ = "consistency";
  int eliminated = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) {
    // Word-parallel sweep: one support bitmask per role instead of one
    // row/column probe per value.  Victims (alive & ~supported) come out
    // in the same ascending order as the per-value formulation, and the
    // mask sees every elimination made for earlier roles, so cascading
    // behaviour within the sweep is unchanged.  (eliminate_batch reuses
    // the support scratch row — after the victims are extracted.)
    victims_.clear();
    const util::ConstBitSpan sup = support_mask(role);
    domain(role).for_each([&](std::size_t rv) {
      if (!sup.test(rv)) victims_.push_back(static_cast<int>(rv));
    });
    eliminated += eliminate_batch(role, victims_);
  }
  if (eliminated == 0) clean_sweep_at_ = muts;
  return eliminated;
}

int Network::filter(int max_iters) {
  int sweeps = 0;
  while (max_iters < 0 || sweeps < max_iters) {
    if (consistency_step() == 0) break;
    ++sweeps;
  }
  return sweeps;
}

bool Network::all_roles_nonempty() const {
  const int R = num_roles();
  for (int role = 0; role < R; ++role)
    if (domain(role).none()) return false;
  return true;
}

bool Network::check_invariants() const {
  const int R = num_roles();
  const std::size_t D = static_cast<std::size_t>(domain_size());
  // Layout invariant for the SIMD tile loads: domain, mask and
  // support-scratch rows start on cache-line boundaries.
  auto aligned = [](const NetworkArena::Word* p) {
    return reinterpret_cast<std::uintptr_t>(p) %
               NetworkArena::kRowAlignBytes ==
           0;
  };
  for (int r = 0; r < R; ++r) {
    if (!aligned(domain(r).words())) return false;
    if (!aligned(arena_.support_scratch(r).words())) return false;
    for (std::size_t s = 0; s < arena_.mask_slots(); ++s)
      if (!aligned(arena_.mask(s, r).words())) return false;
  }
  if (!arcs_built_) return true;
  for (int ra = 0; ra < R; ++ra) {
    const util::ConstBitSpan da = domain(ra);
    for (int rb = ra + 1; rb < R; ++rb) {
      const util::ConstBitSpan db = domain(rb);
      const util::ConstBitMatrixView m = arena_.arc(ra, rb);
      for (std::size_t i = 0; i < D; ++i) {
        // Arc bits may only exist at alive×alive positions; in
        // particular an eliminated value's row/column must be zero.
        if (!da.test(i)) {
          if (m.row_any(i)) return false;
          continue;
        }
        bool bad = false;
        m.row_span(i).for_each([&](std::size_t j) {
          if (!db.test(j)) bad = true;
        });
        if (bad) return false;
      }
    }
  }
  if (arena_.counts_valid()) {
    // AC-4 counters must equal the live support counts.
    const auto counts = arena_.support_counts();
    for (int ra = 0; ra < R; ++ra) {
      for (int rb = ra + 1; rb < R; ++rb) {
        const util::ConstBitMatrixView m = arena_.arc(ra, rb);
        for (std::size_t i = 0; i < D; ++i) {
          if (!domain(ra).test(i)) continue;
          if (counts[(static_cast<std::size_t>(ra) * D + i) * R + rb] !=
              static_cast<std::int32_t>(m.row_count(i)))
            return false;
        }
        for (std::size_t j = 0; j < D; ++j) {
          if (!domain(rb).test(j)) continue;
          std::int32_t col = 0;
          for (std::size_t i = 0; i < D; ++i)
            if (m.test(i, j)) ++col;
          if (counts[(static_cast<std::size_t>(rb) * D + j) * R + ra] != col)
            return false;
        }
      }
    }
  }
  return true;
}

std::size_t Network::total_alive() const {
  std::size_t total = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) total += domain(role).count();
  return total;
}

std::size_t Network::arc_ones() const {
  std::size_t total = 0;
  const std::size_t A = arena_.num_arcs();
  for (std::size_t t = 0; t < A; ++t) total += arena_.arc(t).count();
  return total;
}

std::string to_string(const Grammar& g, RoleValue rv) {
  std::string out = g.label_name(rv.label);
  out += '-';
  out += rv.mod == kNil ? "nil" : std::to_string(rv.mod);
  return out;
}

}  // namespace parsec::cdg
