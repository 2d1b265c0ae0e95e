// Engine-agnostic filtering kernels over arena spans.
//
// Every backend — the sequential parser, the OpenMP engine, the CRCW
// P-RAM step model, the topology models, and (for its packed l×l PE
// words) the MasPar simulation — performs the same four bit-level
// operations: zero an eliminated role value's rows/columns, test
// support, evaluate a unary constraint over a domain, and sweep a
// binary constraint over an arc matrix.  These used to live as bespoke
// inner loops in each engine; they are defined once here, expressed
// over NetworkArena spans, so a layout change (or a future SIMD word
// kernel) lands in exactly one place.
//
// Semantics contracts (the equivalence tests depend on them):
//   * iteration order is role-major, rv-ascending, and set-bit
//     ascending within rows — matching the sequential formulation;
//   * counter hooks (`evals`) replicate the historical increments
//     exactly: one per unary test, two per binary pair tested (whether
//     or not the second assignment runs);
//   * sweep_binary clears bits in place and returns how many.
//
// Counter-hook contract for the masked (vectorized) kernels:
//   * `evals` still counts ACTUAL bytecode-VM dispatches — one per
//     unary value tested, two per binary pair dispatched — so it is a
//     faithful cost measure of the residual path;
//   * pairs/values the mask pass batch-decides without a dispatch are
//     counted separately (`masked_pairs` / `masked_decided`), each
//     representing the same work the plain kernel would have charged:
//     2 evals per masked binary pair, 1 per masked unary value;
//   * therefore  evals_plain ==  evals_masked + 2 * masked_pairs
//     (binary) and  evals_plain == evals_masked + masked_decided
//     (unary) for any identical network state — the *effective* counts
//     NetworkCounters::effective_{unary,binary}_evals() report, which
//     is what the paper-figure benches consume (tested in
//     tests/cdg/maskcache_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cdg/arena.h"
#include "cdg/constraint_eval.h"
#include "cdg/role_value.h"
#include "util/bitmatrix.h"
#include "util/bitset.h"

namespace parsec::cdg::kernels {

/// Zeroes (role, rv)'s row (in arcs where `role` is the row side) and
/// column (where it is the column side) across every incident arc
/// matrix.  The matrix never shrinks (paper §2.2.1, design decision 4).
/// Column clears walk only the partner's alive rows, relying on the
/// arc invariant (bits only at alive×alive positions) that every
/// engine maintains.
void zero_row_col(NetworkArena& a, int role, int rv);

/// Batched zero_row_col for several victims of ONE role: rows are
/// zeroed per victim, but each column-side arc is cleared in a single
/// ANDN pass over the partner's alive rows using a victim bitmask
/// built in `scratch` (D bits, clobbered — the arena's support
/// scratch row for `role` is a natural fit).  End state is identical
/// to calling zero_row_col once per victim.
void zero_rows_cols(NetworkArena& a, int role, std::span<const int> rvs,
                    util::BitSpan scratch);

/// True iff every arc incident to `role` still has a supporting 1-bit
/// for rv (the AND of row/column ORs, paper §1.4).
bool supported(const NetworkArena& a, int role, int rv);

/// Rebuilds the AC-4 support counters in `a.support_counts()` from the
/// current domains and arc matrices.  Word-granular: row counts are
/// popcounts over row words, column counts come from iterating each
/// row's set bits — no per-bit matrix probes.  Returns the number of
/// row words scanned (the initial counting work).
std::size_t count_supports(NetworkArena& a);

/// Evaluates one unary constraint over the set bits of `domain`
/// (ascending), appending failing dense rv indices to `victims`.
/// Bindings are derived from (ix, rid, w).  If `evals` is non-null it
/// is incremented once per value tested.
void propagate_unary(const CompiledConstraint& c, const Sentence& sent,
                     const RvIndexer& ix, RoleId rid, WordPos w,
                     util::ConstBitSpan domain, std::vector<int>& victims,
                     std::size_t* evals = nullptr);

/// As above, but marks victims by setting flags[rv] = 1.  Parallel
/// engines stage eliminations in per-role slices of the arena's
/// rv_flags region (disjoint writes, race-free), then eliminate in
/// role-major, rv-ascending order.
void propagate_unary(const CompiledConstraint& c, const Sentence& sent,
                     const RvIndexer& ix, RoleId rid, WordPos w,
                     util::ConstBitSpan domain, std::span<std::uint8_t> flags,
                     std::size_t* evals = nullptr);

/// Sweeps one binary constraint over the surviving bits of one arc
/// matrix: for every (alive_a[i], alive_b[j]) pair whose bit is set,
/// evaluates both variable assignments and clears the bit on failure.
/// If `evals` is non-null it is incremented by 2 per pair tested
/// (both assignments are charged even when the first already fails).
/// Returns the number of bits cleared.
int sweep_binary(const CompiledConstraint& c, const Sentence& sent,
                 util::BitMatrixView m, std::span<const int> alive_a,
                 std::span<const Binding> bind_a, std::span<const int> alive_b,
                 std::span<const Binding> bind_b,
                 std::size_t* evals = nullptr);

// ---------------------------------------------------------------------
// Vectorized evaluation layer: per-(part, role) truth masks + word
// kernels (the host-side counterpart of the paper's per-PE constraint
// broadcast — one predicate applied to every role value at once).
// ---------------------------------------------------------------------

/// The four hoisted-part truth masks of one binary constraint for one
/// role, one bit per role value (dense rv index): "does this role's
/// value rv satisfy the x-side / y-side hoisted conjunction?".
struct FactoredMasks {
  util::ConstBitSpan ante_x, ante_y;
  util::ConstBitSpan cons_x, cons_y;
};

/// Per-sentence cache of hoisted-part truth masks, resident in the
/// arena's mask region (4 slots per binary constraint, see
/// NetworkArena::mask).  Each mask bit is a pure function of (sentence,
/// role, role value) — independent of the domain state — and is
/// materialized only for values alive at build time; since domains only
/// shrink and the sweep consults mask bits solely at alive positions,
/// eliminations never invalidate a mask.  Only re-binding the arena to
/// a new sentence does: staleness is generation-checked against
/// arena.reinits(), so Network::reinit invalidates every mask in O(1).
class MaskCache {
 public:
  static constexpr std::size_t kSlotsPerConstraint = 4;

  /// Sizes the generation table for `num_binary` constraints (the
  /// arena's mask region must hold 4 * num_binary slots).
  void configure(std::size_t num_binary) {
    if (gen_.size() != num_binary) gen_.assign(num_binary, 0);
  }

  /// True when constraint k's masks are valid for the arena's current
  /// sentence binding.
  bool built(const NetworkArena& a, std::size_t k) const {
    return k < gen_.size() && gen_[k] == a.reinits() + 1;
  }

  /// Materializes (if stale) the four mask rows of binary constraint
  /// `k` for every role.  Each hoisted term is evaluated at the
  /// cheapest granularity its dependences allow — once per label
  /// (mod-independent terms fill whole label runs of the label-major rv
  /// axis), once per modifiee, once per alive value only when the term
  /// reads both halves, and shared across roles when it reads neither
  /// (role v) nor (pos v) — so a build typically costs O(|L| + n)
  /// evaluations per term, not O(R*D).  `roles_per_word` maps dense
  /// role indices to (role id, word).  Returns hoisted evaluations
  /// performed (0 on a cache hit); the caller charges them to its
  /// mask-build counter.
  std::size_t ensure(NetworkArena& a, const FactoredConstraint& c,
                     std::size_t k, const Sentence& sent, const RvIndexer& ix,
                     int roles_per_word);

  /// Mask spans of constraint k for `role` (must be built).
  FactoredMasks masks(const NetworkArena& a, std::size_t k, int role) const {
    assert(built(a, k));
    const std::size_t base = k * kSlotsPerConstraint;
    return FactoredMasks{a.mask(base + 0, role), a.mask(base + 1, role),
                         a.mask(base + 2, role), a.mask(base + 3, role)};
  }

  /// Total mask (re)builds across the cache's lifetime.
  std::uint64_t builds() const { return builds_; }

 private:
  std::vector<std::uint64_t> gen_;  // arena.reinits()+1 when current
  std::uint64_t builds_ = 0;
};

/// Counter sink for the masked kernels (see the counter-hook contract
/// in the header comment).  Null members are simply not charged.
struct MaskedCounters {
  std::size_t* vm_evals = nullptr;       // actual bytecode dispatches
  std::size_t* masked = nullptr;         // pairs/values decided mask-only
  std::size_t* build_evals = nullptr;    // hoisted evals spent on masks
  // Row-pass bookkeeping: alive rows swept and 64-bit row words put
  // through the word algebra.  Both are pure functions of the network
  // state, so the perf gate can pin them.
  std::size_t* tile_sweeps = nullptr;
  std::size_t* lane_words = nullptr;
};

using Word = NetworkArena::Word;

/// Broadcast constants of one a-side row of the masked sweep, each
/// all-ones or all-zero.  Folding the row's hoisted-mask booleans into
/// constants is what makes the word algebra (sweep_word) a fixed
/// 8-term expression: the same instruction stream for every row, the
/// ACU-broadcast shape.
struct SweepRowConsts {
  Word nax;  // ~0 when the row fails ante_x (direction 1 vacuous)
  Word t1c;  // ~0 when cons_x holds with no consequent residual
  Word f1;   // ~0 when direction 1 can be falsified mask-only
  Word ncx;  // ~0 when the row fails cons_x
  Word nay;  // direction-2 mirrors of the four above
  Word t2c;
  Word f2;
  Word ncy;
};

/// Derives a row's constants from its hoisted-mask bits (ax, ay, cx,
/// cy) and the constraint's residual flags.
inline SweepRowConsts sweep_row_consts(const FactoredConstraint& c, bool ax,
                                       bool ay, bool cx, bool cy) {
  const auto all = [](bool b) { return b ? ~Word{0} : Word{0}; };
  return {all(!ax), all(cx && !c.cons_residual), all(ax && !c.ante_residual),
          all(!cx), all(!ay), all(cy && !c.cons_residual),
          all(ay && !c.ante_residual), all(!cy)};
}

/// One row word after the mask pass.
struct SweepWord {
  Word row;   // the word with mask-killed pairs cleared
  Word und;   // surviving pairs the masks leave undecided
  Word dead;  // pairs the masks killed
};

/// The masked sweep's word algebra, the reference for every SIMD tier:
/// `r` is one row word, ax..cy the partner-side mask words at the same
/// index (bit j = does partner value j satisfy the part).  Direction 1
/// (x = row value, y = partner value) is known satisfied iff the
/// antecedent is falsified by a hoisted part, or the consequent is
/// proven by both hoisted parts with no residual; known violated iff
/// the antecedent is proven and a consequent part fails.  Direction 2
/// mirrors with the sides swapped.  Each output bit depends only on
/// the same bit of the inputs.
inline SweepWord sweep_word(Word r, Word ax, Word ay, Word cx, Word cy,
                            const SweepRowConsts& k) {
  const Word t1 = ~ay | k.nax | (cy & k.t1c);
  const Word f1 = k.f1 & ay & (~cy | k.ncx);
  const Word t2 = ~ax | k.nay | (cx & k.t2c);
  const Word f2 = k.f2 & ax & (~cx | k.ncy);
  const Word kill = f1 | f2;
  const Word keep = t1 & t2;
  return {r & ~kill, r & ~kill & ~keep, r & kill};
}

/// Masked sweep of one binary constraint over one arc matrix: the
/// separable part of the constraint is applied as bitwise AND/ANDN over
/// each surviving row, deciding most pairs without a VM dispatch; only
/// pairs the masks leave undecided fall back to the full bytecode
/// program (both variable assignments, exactly like sweep_binary).
/// One plain loop over the alive rows: fold the row's mask bits into
/// SweepRowConsts, run sweep_word over the row, and resolve each
/// word's undecided bits with the residual VM straight away.
/// `dom_a` enumerates the row side's alive values; (rid, w) pairs give
/// the roles' binding coordinates for the fallback.  When
/// `apply_residual` is false undecided pairs are left untouched (the
/// mask-only ablation mode; results then UNDER-approximate the plain
/// sweep).  Returns bits cleared.  Bit-identical to sweep_binary by
/// construction when `apply_residual` is true.
int sweep_binary_masked(const FactoredConstraint& c, const Sentence& sent,
                        util::BitMatrixView m, util::ConstBitSpan dom_a,
                        const FactoredMasks& ma, RoleId rid_a, WordPos wa,
                        const FactoredMasks& mb, RoleId rid_b, WordPos wb,
                        const RvIndexer& ix, const MaskedCounters& counters,
                        bool apply_residual = true);

/// Hoisted-guard unary propagation: evaluates the constraint's
/// role-value-independent guard once for the role; when it fails the
/// whole domain is vacuously satisfied (domain.count() charged to
/// `counters.masked`) and no per-value work runs.  Otherwise the
/// residual program runs per alive value exactly like propagate_unary.
/// Victims are appended in ascending order.
void propagate_unary_masked(const FactoredConstraint& c, const Sentence& sent,
                            const RvIndexer& ix, RoleId rid, WordPos w,
                            util::ConstBitSpan domain,
                            std::vector<int>& victims,
                            const MaskedCounters& counters);

/// As above, but marks victims by setting flags[rv] = 1 (parallel
/// engines' staging; see the flags overload of propagate_unary).
void propagate_unary_masked(const FactoredConstraint& c, const Sentence& sent,
                            const RvIndexer& ix, RoleId rid, WordPos w,
                            util::ConstBitSpan domain,
                            std::span<std::uint8_t> flags,
                            const MaskedCounters& counters);

/// Word-parallel support sweep for one role: writes, into `out` (D
/// bits), the AND over every incident arc of "role value has at least
/// one supporting 1-bit on this arc".  Row-side arcs contribute one
/// row_any bit per value; column-side arcs contribute an OR-fold of
/// the partner's rows (one sequential pass instead of D strided
/// column probes).  out.test(rv) == supported(a, role, rv) for every
/// rv; dead values simply read 0.
void support_mask(const NetworkArena& a, int role, util::BitSpan out);

// ---------------------------------------------------------------------
// Packed l×l submatrix kernels (MasPar PE words, paper Fig. 13).
//
// Each MasPar PE holds an l×l label submatrix packed into one 64-bit
// word: bit (i*l + j) is row-label-slot i, column-label-slot j.  The
// row/column masking that the engine's SIMD phases perform is the
// packed counterpart of zero_row / zero_col above.
// ---------------------------------------------------------------------

/// Mask of row `lab` in an l×l packed submatrix.
constexpr std::uint64_t packed_row_mask(int lab, int l) {
  return ((std::uint64_t{1} << l) - 1) << (lab * l);
}

/// Mask of column `lab` in an l×l packed submatrix.
constexpr std::uint64_t packed_col_mask(int lab, int l) {
  std::uint64_t m = 0;
  for (int i = 0; i < l; ++i) m |= std::uint64_t{1} << (i * l + lab);
  return m;
}

constexpr std::uint64_t zero_packed_row(std::uint64_t w, int lab, int l) {
  return w & ~packed_row_mask(lab, l);
}

constexpr std::uint64_t zero_packed_col(std::uint64_t w, int lab, int l) {
  return w & ~packed_col_mask(lab, l);
}

/// Bit (i, j) of an l×l packed submatrix.
constexpr bool packed_test(std::uint64_t w, int i, int j, int l) {
  return (w >> (i * l + j)) & 1u;
}

}  // namespace parsec::cdg::kernels
