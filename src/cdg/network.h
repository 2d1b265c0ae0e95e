// The constraint network (CN) of paper §1.2-1.4.
//
// One node per word; each node carries q roles (governor, needs, ...).
// Each role holds a *domain*: the set of role values (label-modifiee
// pairs) still considered possible.  Every pair of distinct roles in the
// network is connected by an *arc matrix* recording which role-value
// pairs may legally coexist.
//
// Sizes (paper §1.2): a sentence of n words has R = n*q roles, each with
// up to D = |L|*(n+1) role values; there are O(n^2) arcs each holding an
// O(n^2)-bit matrix, i.e. O(n^4) arc elements in total — the quantity
// the MasPar spreads across its PEs.
//
// Storage: every bit of network state (domains, arc matrices, AC-4
// counters, elimination staging) lives in ONE contiguous NetworkArena
// allocation (cdg/arena.h), mirroring the paper's flat PE-array layout
// (§2.2.1).  Accessors hand out spans/views into that arena, and the
// propagation operations route through the shared cdg/kernels.h layer
// used by every engine.
//
// MasPar fidelity choices mirrored here (§2.2.1):
//   * arc matrices can be built before unary propagation (design
//     decision 1; `Options::prebuild_arcs`), or lazily after;
//   * eliminated role values never shrink a matrix — their rows and
//     columns are zeroed in place (design decision 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cdg/arena.h"
#include "cdg/constraint_eval.h"
#include "cdg/grammar.h"
#include "cdg/kernels.h"
#include "cdg/lexicon.h"
#include "cdg/role_value.h"
#include "util/bitmatrix.h"
#include "util/bitset.h"

namespace parsec::cdg {

/// Work counters for the complexity experiments (bench_pram_complexity,
/// bench_serial_vs_parallel): the serial model's O(k n^4) shape is read
/// off these rather than noisy wall-clock alone.
struct NetworkCounters {
  std::size_t unary_evals = 0;      // actual bytecode-VM dispatches
  std::size_t binary_evals = 0;     // actual bytecode-VM dispatches
  std::size_t eliminations = 0;
  std::size_t arc_zeroings = 0;     // individual matrix bits cleared
  std::size_t support_checks = 0;
  // Vectorized-path bookkeeping (kernels.h counter-hook contract):
  // pairs/values the truth masks decided without a VM dispatch, and the
  // hoisted evaluations spent building masks / testing unary guards.
  std::size_t masked_binary_pairs = 0;
  std::size_t masked_unary_decided = 0;
  std::size_t mask_build_evals = 0;
  /// Row-pass bookkeeping of the masked binary sweep: alive rows swept
  /// (one per row per sentence; in the 8-lane batch, one per row alive
  /// in any lane, charged to every filled lane) and the 64-bit row
  /// words those passes processed.  Both are functions of the network
  /// shape and sweep schedule only — the same on every dispatch tier
  /// (scalar/AVX2/AVX-512), so the perf gate can pin them on any
  /// machine.
  std::size_t tile_sweeps = 0;
  std::size_t simd_lane_words = 0;

  /// Constraint tests performed, in plain-sweep units: what unary_evals
  /// would read had every value been dispatched individually.  Equal to
  /// the plain path's unary_evals for the same network state (the
  /// paper-figure benches consume these, so counts stay reproducible
  /// whichever evaluation path ran).
  std::size_t effective_unary_evals() const {
    return unary_evals + masked_unary_decided;
  }
  /// Same, binary: the plain sweep charges 2 evals per surviving pair.
  std::size_t effective_binary_evals() const {
    return binary_evals + 2 * masked_binary_pairs;
  }

  NetworkCounters& operator+=(const NetworkCounters& o) {
    unary_evals += o.unary_evals;
    binary_evals += o.binary_evals;
    eliminations += o.eliminations;
    arc_zeroings += o.arc_zeroings;
    support_checks += o.support_checks;
    masked_binary_pairs += o.masked_binary_pairs;
    masked_unary_decided += o.masked_unary_decided;
    mask_build_evals += o.mask_build_evals;
    tile_sweeps += o.tile_sweeps;
    simd_lane_words += o.simd_lane_words;
    return *this;
  }
  bool operator==(const NetworkCounters&) const = default;
};

struct NetworkOptions {
  /// Build arc matrices at construction (MasPar design decision 1)
  /// instead of on first binary-constraint application (the paper's
  /// sequential formulation, Fig. 3).  Results are identical; the
  /// ablation bench measures the work difference.
  bool prebuild_arcs = true;
};

/// One elimination, attributed to the phase that caused it.  Consumed
/// by diagnostics (cdg/diagnose.h) and by anyone debugging a grammar.
struct TraceEvent {
  enum class Kind {
    UnaryElimination,    // a unary constraint removed the role value
    SupportElimination,  // consistency maintenance removed it
  };
  Kind kind;
  std::string cause;   // constraint name, or "consistency"
  int role;            // dense role index
  RoleValue rv;
};

class Network {
 public:
  using Options = NetworkOptions;
  using TraceFn = std::function<void(const TraceEvent&)>;

  Network(const Grammar& g, const Sentence& s, Options opt = {});

  /// Rebinds this network to a new sentence of the *same length* under
  /// the *same grammar*, reusing the whole arena in place (no
  /// allocation; the serve hot path relies on this).  Counters and the
  /// trace hook are reset, and the arcs are left exactly as a fresh
  /// network under `opt` would have them: filled from the new domains
  /// when opt.prebuild_arcs, otherwise unbuilt until the first binary
  /// constraint.  Returns false (and leaves the network untouched) when
  /// the sentence length differs.
  bool reinit(const Sentence& s, Options opt);
  /// As above, keeping the options the network was built or last
  /// reinitialized with.
  bool reinit(const Sentence& s) { return reinit(s, opt_); }

  // ---- shape ----------------------------------------------------------
  int n() const { return sentence_.size(); }
  int roles_per_word() const { return grammar_->num_roles(); }
  /// Total role count R = n * q.
  int num_roles() const { return n() * roles_per_word(); }
  /// Shared domain-axis length D = |L| * (n+1).
  int domain_size() const { return indexer_.domain_size(); }

  const Grammar& grammar() const { return *grammar_; }
  const Sentence& sentence() const { return sentence_; }
  const RvIndexer& indexer() const { return indexer_; }

  /// The single allocation backing all network state.
  NetworkArena& arena() { return arena_; }
  const NetworkArena& arena() const { return arena_; }

  /// Dense index of (word position, role id); words are 1-based.
  int role_index(WordPos w, RoleId r) const {
    return (w - 1) * roles_per_word() + r;
  }
  WordPos word_of_role(int role) const { return role / roles_per_word() + 1; }
  RoleId role_id_of(int role) const { return role % roles_per_word(); }

  // ---- domains ---------------------------------------------------------
  util::ConstBitSpan domain(int role) const { return arena_.domain(role); }
  bool alive(int role, int rv) const {
    return arena_.domain(role).test(static_cast<std::size_t>(rv));
  }
  /// Alive role values of a role, in dense-index order.
  std::vector<RoleValue> alive_values(int role) const;

  // ---- arcs --------------------------------------------------------------
  bool arcs_built() const { return arcs_built_; }
  /// Initializes every arc matrix: bit (i,j) is 1 iff both role values
  /// are currently alive.  Idempotent.
  void build_arcs();

  /// Arc matrix for roles ra < rb (rows = ra's values, cols = rb's).
  util::ConstBitMatrixView arc_matrix(int ra, int rb) const;

  /// Mutable matrix access for parallel engines that partition work by
  /// arc (each worker owns disjoint matrices).  Counter bookkeeping is
  /// the caller's responsibility.
  util::BitMatrixView arc_matrix_mut(int ra, int rb) {
    return arena_.arc(ra, rb);
  }

  bool arc_allows(int ra, int rv_a, int rb, int rv_b) const;
  void arc_forbid(int ra, int rv_a, int rb, int rv_b);

  // ---- alive cache -------------------------------------------------------
  /// Rebuilds the per-role alive-value and binding lists from the
  /// current domains into persistent scratch (no steady-state
  /// allocation).  The spans below stay valid until the next refresh;
  /// eliminations do not invalidate the memory, only the contents.
  void refresh_alive_cache();
  std::span<const int> alive_list(int role) const {
    return {alive_flat_.data() + alive_off_[role],
            alive_off_[role + 1] - alive_off_[role]};
  }
  std::span<const Binding> binding_list(int role) const {
    return {bind_flat_.data() + alive_off_[role],
            alive_off_[role + 1] - alive_off_[role]};
  }
  /// Total alive values across all roles, per the last refresh.
  std::size_t alive_cache_total() const { return alive_flat_.size(); }

  // ---- parsing operations ------------------------------------------------
  /// Propagates one unary constraint over every role value (paper §1.4);
  /// returns the number of role values eliminated.
  int apply_unary(const CompiledConstraint& c);

  /// Propagates one binary constraint over every pair of role values on
  /// every arc, in both variable assignments; returns bits zeroed.
  /// Builds arcs first if they are lazy.
  int apply_binary(const CompiledConstraint& c);

  // ---- vectorized (masked) parsing operations ---------------------------
  /// Hoisted-guard unary propagation: identical eliminations to
  /// apply_unary(c.full), but roles whose guard fails skip the per-value
  /// sweep entirely (charged to counters().masked_unary_decided).
  int apply_unary(const FactoredConstraint& c);

  /// Masked binary sweep: identical bits zeroed to apply_binary(c.full),
  /// with most pairs decided by bitwise row kernels over the constraint's
  /// truth masks (stored in arena mask slot group `slot`, one group per
  /// binary constraint) and only mask-undecided pairs dispatched to the
  /// bytecode VM.  With `apply_residual` false, undecided pairs are left
  /// untouched instead (bench_ablation_masks' mask-only mode; the result
  /// then under-approximates the plain sweep).
  int apply_binary(const FactoredConstraint& c, std::size_t slot,
                   bool apply_residual = true);

  /// Builds (if stale) constraint `c`'s truth masks in slot group `slot`;
  /// hoisted evaluations are charged to counters().mask_build_evals.
  /// Parallel engines call this up front, then read masks() per arc.
  void ensure_masks(const FactoredConstraint& c, std::size_t slot);

  /// Mask spans of slot group `slot` for `role` (ensure_masks first).
  kernels::FactoredMasks masks(std::size_t slot, int role) const {
    return mask_cache_.masks(arena_, slot, role);
  }

  /// The mask cache itself (staleness inspection in tests).
  const kernels::MaskCache& mask_cache() const { return mask_cache_; }

  /// Removes a role value: clears its domain bit and zeroes its row or
  /// column in every arc matrix incident to `role`.
  void eliminate(int role, int rv);

  /// Removes several role values of ONE role: identical bookkeeping and
  /// end state to calling eliminate(role, rv) for each element in
  /// order, but large batches clear their arc columns in one fused
  /// ANDN pass per incident arc (kernels::zero_rows_cols) instead of
  /// one strided pass per victim.  Clobbers the role's support-scratch
  /// row.  Returns the number of values actually eliminated.
  int eliminate_batch(int role, std::span<const int> rvs);

  /// True if some arc no longer supports (role, rv): an incident matrix
  /// whose row/column for rv is all zeros (paper §1.4).
  bool supported(int role, int rv);

  /// Word-parallel support sweep: fills the role's arena support-scratch
  /// row with the per-value support bits (kernels::support_mask) and
  /// returns a view of it.  out.test(rv) == supported(role, rv) for
  /// every rv; support_checks is charged one per alive value, exactly
  /// like the per-value path.  The span stays valid until the next
  /// support_mask call for the same role.
  util::ConstBitSpan support_mask(int role);

  /// One consistency-maintenance sweep over all role values; returns the
  /// number eliminated.  Eliminations cascade within the sweep.
  int consistency_step();

  /// Filtering (paper §1.4): repeats consistency_step until quiescent or
  /// `max_iters` sweeps have run (<0 = unbounded, the sequential model;
  /// the MasPar bounds it, design decision 5).  Returns sweeps that
  /// eliminated at least one value.
  int filter(int max_iters = -1);

  /// Necessary acceptance condition: every role still has a candidate.
  bool all_roles_nonempty() const;

  /// Structural self-check for tests: every eliminated role value must
  /// have fully zeroed rows/columns in its incident arcs (equivalently,
  /// arc bits exist only at alive×alive positions), and — when the
  /// arena's AC-4 counters are valid — every counter must equal the
  /// corresponding row/column support count.  Returns true when all
  /// invariants hold.
  bool check_invariants() const;

  // ---- stats ------------------------------------------------------------
  std::size_t total_alive() const;
  std::size_t arc_ones() const;
  NetworkCounters& counters() { return counters_; }
  const NetworkCounters& counters() const { return counters_; }

  /// Binding (rv, role-id, word-pos) for constraint evaluation.
  Binding binding(int role, int rv) const {
    return Binding{indexer_.decode(rv), role_id_of(role), word_of_role(role)};
  }

  /// Installs an elimination observer (empty function to clear).  The
  /// callback fires once per role value removed, attributed to the
  /// unary constraint or consistency sweep that killed it.
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

 private:
  void init_domains();
  void fill_arcs();

  const Grammar* grammar_;
  Sentence sentence_;
  RvIndexer indexer_;
  NetworkArena arena_;  // domains + arcs + counters + staging + masks
  kernels::MaskCache mask_cache_;
  Options opt_;
  bool arcs_built_ = false;
  NetworkCounters counters_;
  TraceFn trace_;
  // Attribution context for trace events during apply_unary /
  // consistency_step.
  TraceEvent::Kind current_kind_ = TraceEvent::Kind::SupportElimination;
  std::string current_cause_ = "consistency";
  // Quiescence memo: the (eliminations + arc_zeroings) total observed at
  // the start of the last consistency sweep that eliminated nothing.
  // While that total is unchanged the network cannot have lost support,
  // so a repeat sweep is provably a no-op and is skipped (the common
  // case: the fixpoint-confirming final filter sweep, and sweeps after
  // binary constraints that zeroed nothing).  Any mutation path —
  // eliminate, arc_forbid, the binary sweeps — bumps those counters and
  // re-arms the sweep.
  static constexpr std::uint64_t kNoCleanSweep = ~std::uint64_t{0};
  std::uint64_t clean_sweep_at_ = kNoCleanSweep;
  // Persistent scratch (capacity retained across reinit; the serve hot
  // path must not allocate per request).
  std::vector<int> victims_;             // per-role elimination staging
  std::vector<int> alive_flat_;          // alive rvs, role-major
  std::vector<Binding> bind_flat_;       // bindings, same indexing
  std::vector<std::size_t> alive_off_;   // [R + 1] offsets into the above
};

}  // namespace parsec::cdg
