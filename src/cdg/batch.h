// Structure-of-arrays sentence batching: one SIMD row sweep filters
// up to eight same-shape sentences at once.
//
// The MasPar runs ONE instruction stream over thousands of PEs; the
// host analogue with a handful of cores is to widen the data instead.
// A role's domain row is typically only a few 64-bit words (W =
// ceil(D/64)), so a single-sentence sweep leaves most of an AVX-512
// vector idle.  Batching fixes the occupancy: B = simd::kMaxLanes = 8
// sentences of the same (grammar, length) interleave their bitset rows
// word-by-word —
//
//   batched word t  =  word t/8  of sentence lane t%8
//
// — so one 512-bit vector op advances all eight sentences by 64 role
// values, and one batched row is 8*W words = W cache lines, each line
// holding the SAME word index of all eight lanes.  The per-lane
// constants of simd::SweepConsts supply each lane's own broadcast
// booleans, and the per-lane SweepStats accumulators split the cost
// counters back out per sentence.
//
// Pipeline (BatchParser::parse):
//   1. per-lane prep through POOLED ordinary Networks (reinit reuses
//      each lane's arena, like engine::NetworkScratch): domain init,
//      unary propagation, truth-mask build.  Per-lane arc matrices are
//      never built — the initial arc row i of (ra, rb) is just the
//      partner domain masked by i's aliveness, so the interleaved rows
//      are synthesized straight from the interleaved domains;
//   2. gather: interleave domains and masks, synthesize arc rows that
//      are alive in at least one lane ("batch.gather" span; union-dead
//      rows are skipped and never read, so stale words from a previous
//      same-shape batch are harmless and no buffer-wide clear is paid);
//   3. batched binary sweeps, one consistency step per constraint
//      (the serial schedule, with the same provable-no-op shortcut),
//      then the joint fixpoint ("batch.binary" / "batch.filter") —
//      lanes that quiesce early ride along as no-ops (their words stop
//      changing), exactly like masked-off MasPar PEs;
//   4. per-lane results straight from the batch arena ("batch.scatter"):
//      domains, acceptance, counters.
//
// Bit-identity: every engine drives the same monotone filtering system
// to its unique fixpoint (confluence), so each lane's final domains are
// bit-identical to a sequential parse of that sentence alone — that is
// the tested gate.  Per-lane cost counters reflect the lockstep
// schedule (a lane is charged for sweeps it rides along with), so they
// are >= the sequential counters for the same sentence; wall-clock is
// what batching buys.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "cdg/constraint_eval.h"
#include "cdg/grammar.h"
#include "cdg/network.h"
#include "cdg/simd.h"
#include "util/bitset.h"

namespace parsec::cdg {

/// Per-sentence slice of a batched parse.
struct BatchLaneResult {
  bool accepted = false;
  int consistency_iterations = 0;  // batched sweeps run (same for all lanes)
  std::size_t alive_role_values = 0;
  std::vector<util::DynBitset> domains;  // one bitset per role
  NetworkCounters counters;
};

/// Batched parser for one grammar.  parse() accepts 1..simd::kMaxLanes
/// sentences of identical length; unfilled lanes stay all-zero and cost
/// nothing (dead rows are no-ops).  Reusable across calls; the
/// interleaved buffers are kept allocated between same-shape batches.
class BatchParser {
 public:
  explicit BatchParser(const Grammar& g, NetworkOptions opt = {});

  static constexpr std::size_t kLanes = simd::kMaxLanes;

  /// Parses the batch to the filtering fixpoint.  All sentences must
  /// have the same length; at most kLanes of them.
  std::vector<BatchLaneResult> parse(std::span<const Sentence> sentences);

  const Grammar& grammar() const { return *grammar_; }

 private:
  using Word = NetworkArena::Word;

  // Interleaved-row helpers (sW_ = W_ * kLanes words per batched row).
  Word* dom_row(int role) { return dom_.data() + role * sW_; }
  Word* udom_row(int role) { return udom_.data() + role * W_; }
  /// True when role value `i` is alive in at least one lane.
  bool union_alive(const Word* ud, std::size_t i) const {
    return (ud[i / NetworkArena::kWordBits] >>
            (i % NetworkArena::kWordBits)) &
           Word{1};
  }
  Word* sup_row(int role) { return sup_.data() + role * sW_; }
  Word* arc_row(std::size_t arc, std::size_t i) {
    return arcs_.data() + (arc * D_ + i) * sW_;
  }
  /// Interleaved masks: [slot][role][part] rows, part in {ax, ay, cx, cy}.
  Word* mask_row(std::size_t slot, int role, int part) {
    return masks_.data() +
           ((slot * static_cast<std::size_t>(R_) + role) * 4 + part) * sW_;
  }
  /// Row-major upper-triangle arc index (same formula as NetworkArena).
  std::size_t arc_index(int ra, int rb) const {
    const std::size_t R = static_cast<std::size_t>(R_);
    const std::size_t a = static_cast<std::size_t>(ra);
    const std::size_t b = static_cast<std::size_t>(rb);
    return a * R - a * (a + 1) / 2 + (b - a - 1);
  }

  void gather(std::span<Network> nets);
  void sweep_constraint(std::span<Network> nets, std::size_t slot,
                        std::size_t filled);
  int consistency_step(std::size_t filled);
  void eliminate(int role, std::size_t lane, std::size_t rv);

  const Grammar* grammar_;
  NetworkOptions opt_;
  std::vector<FactoredConstraint> unary_;
  std::vector<FactoredConstraint> binary_;

  // Shape of the current batch.
  int R_ = 0;
  std::size_t D_ = 0;
  std::size_t W_ = 0;   // words per single-sentence row
  std::size_t sW_ = 0;  // words per interleaved row (W_ * kLanes)
  std::size_t num_arcs_ = 0;
  std::vector<std::pair<int, int>> arc_pairs_;  // arc index -> (ra, rb)

  std::vector<Word> dom_;    // R interleaved domain rows
  std::vector<Word> udom_;   // R un-interleaved rows: per-word OR over lanes
  std::vector<Word> sup_;    // R interleaved support rows (scratch)
  std::vector<Word> arcs_;   // num_arcs * D interleaved arc rows
  std::vector<Word> masks_;  // slots * R * 4 interleaved mask rows
  std::vector<Word> row_scratch_;  // one interleaved scratch row

  // Per-lane parse state for the residual VM and result assembly.
  std::vector<const Sentence*> sents_;
  std::vector<NetworkCounters> lane_counters_;

  // Pooled per-lane prep networks, keyed by sentence length (reused via
  // Network::reinit, like engine::NetworkScratch — a serving workload
  // cycles a handful of lengths, and rebuilding eight networks per
  // shape change would dwarf the batch itself), and the consistency
  // clean-sweep shortcut (mirrors Network::clean_sweep_at_).
  std::map<std::size_t, std::vector<Network>> pool_;
  std::uint64_t clean_sweep_at_ = ~std::uint64_t{0};
};

}  // namespace parsec::cdg
