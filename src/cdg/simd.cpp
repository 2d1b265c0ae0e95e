#include "cdg/simd.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <string>

#include "cdg/kernels.h"

// The vector variants use function-level target attributes, so no
// special compile flags are needed: the file builds on any x86-64
// gcc/clang and the unsupported paths are simply never dispatched.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PARSEC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace parsec::cdg::simd {

namespace {

// ---------------------------------------------------------------------
// Scalar tier: the reference semantics every wider tier must reproduce
// bit-for-bit — kernels::sweep_word per word, with lane t % 8's
// constants.
// ---------------------------------------------------------------------

void sweep_row_scalar(Word* row, const Word* ax, const Word* ay,
                      const Word* cx, const Word* cy, const SweepConsts& c,
                      std::size_t n, Word* undecided, SweepStats* stats) {
  assert(n % kMaxLanes == 0);
  kernels::SweepRowConsts k[kMaxLanes];
  for (std::size_t b = 0; b < kMaxLanes; ++b)
    k[b] = {c.nax[b], c.t1c[b], c.f1[b], c.ncx[b],
            c.nay[b], c.t2c[b], c.f2[b], c.ncy[b]};
  Word any = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t b = t % kMaxLanes;
    const Word r = row[t];
    const kernels::SweepWord s =
        kernels::sweep_word(r, ax[t], ay[t], cx[t], cy[t], k[b]);
    row[t] = s.row;
    undecided[t] = s.und;
    any |= s.und;
    stats->masked[b] += static_cast<Word>(std::popcount(r)) -
                        static_cast<Word>(std::popcount(s.und));
    stats->dead[b] += static_cast<Word>(std::popcount(s.dead));
  }
  stats->any_undecided |= any != 0;
}

void and_scalar(Word* dst, const Word* src, std::size_t n) {
  for (std::size_t t = 0; t < n; ++t) dst[t] &= src[t];
}

constexpr Ops kScalarOps{sweep_row_scalar, and_scalar};

#if defined(PARSEC_SIMD_X86)

// ---------------------------------------------------------------------
// AVX2 tier: 4 words per op; popcount via the pshufb nibble LUT folded
// with psadbw (no scalar extract in the hot loop).
// ---------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i popcnt256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

struct Avx2Acc {
  __m256i masked, dead, und;
};

__attribute__((target("avx2"))) inline void sweep_vec_avx2(
    Word* row, const Word* ax, const Word* ay, const Word* cx,
    const Word* cy, Word* undecided, std::size_t t, __m256i knax,
    __m256i kt1c, __m256i kf1, __m256i kncx, __m256i knay, __m256i kt2c,
    __m256i kf2, __m256i kncy, Avx2Acc* acc) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + t));
  const __m256i axv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ax + t));
  const __m256i ayv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ay + t));
  const __m256i cxv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cx + t));
  const __m256i cyv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cy + t));
  const __m256i nay = _mm256_xor_si256(ayv, ones);
  const __m256i nax = _mm256_xor_si256(axv, ones);
  const __m256i ncy = _mm256_xor_si256(cyv, ones);
  const __m256i ncx = _mm256_xor_si256(cxv, ones);
  const __m256i t1 = _mm256_or_si256(
      _mm256_or_si256(nay, knax), _mm256_and_si256(cyv, kt1c));
  const __m256i f1 = _mm256_and_si256(
      _mm256_and_si256(kf1, ayv), _mm256_or_si256(ncy, kncx));
  const __m256i t2 = _mm256_or_si256(
      _mm256_or_si256(nax, knay), _mm256_and_si256(cxv, kt2c));
  const __m256i f2 = _mm256_and_si256(
      _mm256_and_si256(kf2, axv), _mm256_or_si256(ncx, kncy));
  const __m256i kill = _mm256_or_si256(f1, f2);
  const __m256i keep = _mm256_and_si256(t1, t2);
  const __m256i newr = _mm256_andnot_si256(kill, r);
  const __m256i und = _mm256_andnot_si256(keep, newr);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + t), newr);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(undecided + t), und);
  acc->masked = _mm256_add_epi64(
      acc->masked, _mm256_sub_epi64(popcnt256(r), popcnt256(und)));
  acc->dead = _mm256_add_epi64(acc->dead,
                               popcnt256(_mm256_and_si256(r, kill)));
  acc->und = _mm256_or_si256(acc->und, und);
}

__attribute__((target("avx2"))) void sweep_row_avx2(
    Word* row, const Word* ax, const Word* ay, const Word* cx,
    const Word* cy, const SweepConsts& c, std::size_t n, Word* undecided,
    SweepStats* stats) {
  assert(n % kMaxLanes == 0);
  // k0 carries the constants of lanes 0-3, k1 those of lanes 4-7.
  __m256i k0[8], k1[8];
  const Word* const cptr[8] = {c.nax, c.t1c, c.f1, c.ncx,
                               c.nay, c.t2c, c.f2, c.ncy};
  for (int i = 0; i < 8; ++i) {
    k0[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cptr[i]));
    k1[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cptr[i] + 4));
  }
  Avx2Acc a0{_mm256_setzero_si256(), _mm256_setzero_si256(),
             _mm256_setzero_si256()};
  Avx2Acc a1 = a0;
  for (std::size_t t = 0; t < n; t += 8) {
    sweep_vec_avx2(row, ax, ay, cx, cy, undecided, t, k0[0], k0[1], k0[2],
                   k0[3], k0[4], k0[5], k0[6], k0[7], &a0);
    sweep_vec_avx2(row, ax, ay, cx, cy, undecided, t + 4, k1[0], k1[1],
                   k1[2], k1[3], k1[4], k1[5], k1[6], k1[7], &a1);
  }
  alignas(32) Word m0[4], m1[4], d0[4], d1[4], u[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(m0), a0.masked);
  _mm256_store_si256(reinterpret_cast<__m256i*>(m1), a1.masked);
  _mm256_store_si256(reinterpret_cast<__m256i*>(d0), a0.dead);
  _mm256_store_si256(reinterpret_cast<__m256i*>(d1), a1.dead);
  _mm256_store_si256(reinterpret_cast<__m256i*>(u),
                     _mm256_or_si256(a0.und, a1.und));
  for (int i = 0; i < 4; ++i) {
    stats->masked[i] += m0[i];
    stats->masked[i + 4] += m1[i];
    stats->dead[i] += d0[i];
    stats->dead[i + 4] += d1[i];
  }
  stats->any_undecided |= (u[0] | u[1] | u[2] | u[3]) != 0;
}

__attribute__((target("avx2"))) void and_avx2(Word* dst, const Word* src,
                                              std::size_t n) {
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + t));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + t));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + t),
                        _mm256_and_si256(d, s));
  }
  for (; t < n; ++t) dst[t] &= src[t];
}

constexpr Ops kAvx2Ops{sweep_row_avx2, and_avx2};

// ---------------------------------------------------------------------
// AVX-512 tier: 8 words per op — one vector op per batch word group —
// with native vpopcntq.  The accumulator's 64-bit vector lanes ARE the
// sentence lanes, so the per-lane stats cost nothing extra.
// ---------------------------------------------------------------------

#define PARSEC_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512vpopcntdq")))

struct Avx512Acc {
  __m512i masked, dead, und;
};

PARSEC_TARGET_AVX512 inline void sweep_vec_avx512(
    Word* row, const Word* ax, const Word* ay, const Word* cx,
    const Word* cy, Word* undecided, std::size_t t, __m512i knax,
    __m512i kt1c, __m512i kf1, __m512i kncx, __m512i knay, __m512i kt2c,
    __m512i kf2, __m512i kncy, Avx512Acc* acc) {
  const __m512i ones = _mm512_set1_epi64(-1);
  const __m512i r = _mm512_loadu_si512(row + t);
  const __m512i axv = _mm512_loadu_si512(ax + t);
  const __m512i ayv = _mm512_loadu_si512(ay + t);
  const __m512i cxv = _mm512_loadu_si512(cx + t);
  const __m512i cyv = _mm512_loadu_si512(cy + t);
  const __m512i nay = _mm512_xor_si512(ayv, ones);
  const __m512i nax = _mm512_xor_si512(axv, ones);
  const __m512i ncy = _mm512_xor_si512(cyv, ones);
  const __m512i ncx = _mm512_xor_si512(cxv, ones);
  const __m512i t1 = _mm512_or_si512(_mm512_or_si512(nay, knax),
                                     _mm512_and_si512(cyv, kt1c));
  const __m512i f1 = _mm512_and_si512(_mm512_and_si512(kf1, ayv),
                                      _mm512_or_si512(ncy, kncx));
  const __m512i t2 = _mm512_or_si512(_mm512_or_si512(nax, knay),
                                     _mm512_and_si512(cxv, kt2c));
  const __m512i f2 = _mm512_and_si512(_mm512_and_si512(kf2, axv),
                                      _mm512_or_si512(ncx, kncy));
  const __m512i kill = _mm512_or_si512(f1, f2);
  const __m512i keep = _mm512_and_si512(t1, t2);
  const __m512i newr = _mm512_andnot_si512(kill, r);
  const __m512i und = _mm512_andnot_si512(keep, newr);
  _mm512_storeu_si512(row + t, newr);
  _mm512_storeu_si512(undecided + t, und);
  acc->masked = _mm512_add_epi64(
      acc->masked,
      _mm512_sub_epi64(_mm512_popcnt_epi64(r), _mm512_popcnt_epi64(und)));
  acc->dead = _mm512_add_epi64(
      acc->dead, _mm512_popcnt_epi64(_mm512_and_si512(r, kill)));
  acc->und = _mm512_or_si512(acc->und, und);
}

PARSEC_TARGET_AVX512 void sweep_row_avx512(
    Word* row, const Word* ax, const Word* ay, const Word* cx,
    const Word* cy, const SweepConsts& c, std::size_t n, Word* undecided,
    SweepStats* stats) {
  assert(n % kMaxLanes == 0);
  Avx512Acc acc{_mm512_setzero_si512(), _mm512_setzero_si512(),
                _mm512_setzero_si512()};
  const __m512i knax = _mm512_loadu_si512(c.nax);
  const __m512i kt1c = _mm512_loadu_si512(c.t1c);
  const __m512i kf1 = _mm512_loadu_si512(c.f1);
  const __m512i kncx = _mm512_loadu_si512(c.ncx);
  const __m512i knay = _mm512_loadu_si512(c.nay);
  const __m512i kt2c = _mm512_loadu_si512(c.t2c);
  const __m512i kf2 = _mm512_loadu_si512(c.f2);
  const __m512i kncy = _mm512_loadu_si512(c.ncy);
  for (std::size_t t = 0; t < n; t += 8)
    sweep_vec_avx512(row, ax, ay, cx, cy, undecided, t, knax, kt1c, kf1,
                     kncx, knay, kt2c, kf2, kncy, &acc);
  alignas(64) Word m[8], d[8], u[8];
  _mm512_store_si512(m, acc.masked);
  _mm512_store_si512(d, acc.dead);
  _mm512_store_si512(u, acc.und);
  for (int i = 0; i < 8; ++i) {
    stats->masked[i] += m[i];
    stats->dead[i] += d[i];
  }
  stats->any_undecided |=
      (u[0] | u[1] | u[2] | u[3] | u[4] | u[5] | u[6] | u[7]) != 0;
}

PARSEC_TARGET_AVX512 void and_avx512(Word* dst, const Word* src,
                                     std::size_t n) {
  std::size_t t = 0;
  for (; t + 8 <= n; t += 8)
    _mm512_storeu_si512(dst + t,
                        _mm512_and_si512(_mm512_loadu_si512(dst + t),
                                         _mm512_loadu_si512(src + t)));
  for (; t < n; ++t) dst[t] &= src[t];
}

constexpr Ops kAvx512Ops{sweep_row_avx512, and_avx512};

#endif  // PARSEC_SIMD_X86

const Ops* const kTables[3] = {
    &kScalarOps,
#if defined(PARSEC_SIMD_X86)
    &kAvx2Ops,
    &kAvx512Ops,
#else
    &kScalarOps,
    &kScalarOps,
#endif
};

IsaTier detect_impl() {
#if defined(PARSEC_SIMD_X86)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vpopcntdq"))
    return IsaTier::Avx512;
  if (__builtin_cpu_supports("avx2")) return IsaTier::Avx2;
#endif
  return IsaTier::Scalar;
}

IsaTier min_tier(IsaTier a, IsaTier b) {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

/// PARSEC_SIMD environment cap; unknown or unset means "no cap".
IsaTier env_cap() {
  const char* e = std::getenv("PARSEC_SIMD");
  if (!e || !*e) return IsaTier::Avx512;
  std::string s(e);
  for (char& ch : s)
    if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
  if (s == "off" || s == "scalar" || s == "0" || s == "none")
    return IsaTier::Scalar;
  if (s == "avx2") return IsaTier::Avx2;
  return IsaTier::Avx512;
}

IsaTier env_tier() {
  static const IsaTier t = min_tier(detect_impl(), env_cap());
  return t;
}

std::atomic<int> g_forced{-1};

}  // namespace

const char* tier_name(IsaTier t) {
  switch (t) {
    case IsaTier::Scalar:
      return "scalar";
    case IsaTier::Avx2:
      return "avx2";
    case IsaTier::Avx512:
      return "avx512";
  }
  return "scalar";
}

IsaTier detected_tier() {
  static const IsaTier t = detect_impl();
  return t;
}

IsaTier active_tier() {
  const int f = g_forced.load(std::memory_order_relaxed);
  if (f >= 0) return static_cast<IsaTier>(f);
  return env_tier();
}

void force_tier(IsaTier t) {
  g_forced.store(static_cast<int>(min_tier(t, detected_tier())),
                 std::memory_order_relaxed);
}

void clear_forced_tier() { g_forced.store(-1, std::memory_order_relaxed); }

const Ops& ops() { return *kTables[static_cast<int>(active_tier())]; }

}  // namespace parsec::cdg::simd
