// Runtime-dispatched SIMD word kernels for the 8-lane batch sweep.
//
// The masked binary sweep is Boolean matrix work: per arc row it
// evaluates eight AND/ANDN/OR terms over the partner-side truth-mask
// words and folds the results into kill/keep/undecided words
// (kernels::sweep_word, cdg/kernels.h).  That inner loop is the
// host-side counterpart of the MasPar ACU broadcasting one instruction
// to every PE (paper §2.1).  Wide vector instructions only copy that
// broadcast when their lanes are full, which on the host means the
// structure-of-arrays sentence batch (cdg/batch.h): word index t of a
// batch row holds word t/8 of sentence lane t%8, and each constant
// carries 8 per-lane words.  One AVX-512 vector op then advances all 8
// sentences by 64 role values at once, and the per-lane stats
// accumulators fall out of the vector popcounts for free (each 64-bit
// accumulator lane IS a sentence lane).  The per-sentence sweep in
// cdg/kernels.cpp is a plain scalar loop and never dispatches.
//
// AVX2 (4 words per op) and AVX-512 (8 words per op, native
// vpopcntdq) variants sit behind a CPUID-resolved dispatch table; the
// scalar tier, built on kernels::sweep_word, is the reference
// semantics.  All tiers compute bit-identical results and counter
// totals (each word's outputs depend only on that word's inputs), so
// the dispatch tier is a pure throughput knob — tested by forcing
// every tier over the same corpus.
//
// Overriding the tier: the PARSEC_SIMD environment variable ("off" /
// "scalar" / "avx2" / "avx512", case-insensitive, read once) caps the
// CPUID-detected tier, and force_tier()/ScopedTier override both for
// tests.  Requests above the detected tier clamp down — forcing
// "avx512" on an AVX2 host runs AVX2.
#pragma once

#include <cstddef>
#include <cstdint>

namespace parsec::cdg::simd {

using Word = std::uint64_t;

/// Dispatch tiers, ordered: a tier implies every lower tier works.
enum class IsaTier : int { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// Stable lowercase name ("scalar", "avx2", "avx512") for metrics,
/// bench JSON and the PARSEC_SIMD parser.
const char* tier_name(IsaTier t);

/// Best tier this CPU supports (CPUID, computed once).  AVX-512 needs
/// avx512f + avx512vpopcntdq (the sweep counts pairs with vpopcntq).
IsaTier detected_tier();

/// Tier in effect: force_tier() override if set, else the detected
/// tier capped by the PARSEC_SIMD environment variable.
IsaTier active_tier();

/// Process-wide override (clamped to detected_tier()).  Not a
/// synchronization point: set it before parsing starts, as the
/// forced-tier tests do.
void force_tier(IsaTier t);
void clear_forced_tier();

/// RAII tier override for tests.
class ScopedTier {
 public:
  explicit ScopedTier(IsaTier t) { force_tier(t); }
  ~ScopedTier() { clear_forced_tier(); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;
};

/// SoA batch width.  Eight 64-bit words = one AVX-512 vector = one
/// cache line: a batch row is a sequence of aligned 8-word groups, one
/// word per sentence lane.
inline constexpr std::size_t kMaxLanes = 8;

/// Per-lane broadcast constants of one a-side batch row: member p,
/// lane b is kernels::SweepRowConsts member p of sentence lane b (see
/// kernels::sweep_row_consts).  Word index t of the row uses lane t % 8.
struct SweepConsts {
  Word nax[kMaxLanes];
  Word t1c[kMaxLanes];
  Word f1[kMaxLanes];
  Word ncx[kMaxLanes];
  Word nay[kMaxLanes];
  Word t2c[kMaxLanes];
  Word f2[kMaxLanes];
  Word ncy[kMaxLanes];
};

/// Per-lane accumulators of one or more sweep_row calls.  The caller
/// zero-initializes once per attribution scope; kernels add into them.
struct SweepStats {
  Word masked[kMaxLanes] = {};  // pairs decided without a VM dispatch
  Word dead[kMaxLanes] = {};    // pairs the mask pass killed
  bool any_undecided = false;   // any nonzero word written to `undecided`
};

/// The dispatched primitives.  All pointers are to 64-bit word arrays;
/// `n` is a word count.  None of the kernels require alignment (the
/// batch buffers are not over-aligned).
struct Ops {
  /// Masked-sweep batch-row kernel: for each word t < n computes the
  /// kill/keep/undecided decision words from the partner-mask words
  /// (ax/ay/cx/cy) and lane t % 8's constants, applies the kill to
  /// row[t] in place, writes the undecided word to undecided[t], and
  /// accumulates per-lane masked/dead popcounts into `stats`.
  /// Requires n % kMaxLanes == 0.
  void (*sweep_row)(Word* row, const Word* ax, const Word* ay,
                    const Word* cx, const Word* cy, const SweepConsts& c,
                    std::size_t n, Word* undecided, SweepStats* stats);
  void (*and_into)(Word* dst, const Word* src, std::size_t n);  // dst &= src
};

/// Dispatch table of the active tier (one relaxed atomic load plus an
/// array index; resolve once per sweep, not per row).
const Ops& ops();

}  // namespace parsec::cdg::simd
