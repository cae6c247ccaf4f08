//===- engine/RunSkip.h - Bulk self-loop run skipping ----------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run-state skipping for the staged machine and the lexer DFA. A state
/// that self-loops over a byte class (identifier/number/whitespace/string
/// interiors — the overwhelming majority of bytes in the benchmark
/// corpora) consumes whole runs with a bitmap classifier instead of the
/// byte-at-a-time table walk. The table walk is latency-bound: each step
/// is a load whose address depends on the previous load (~L1 latency per
/// byte). Membership tests against a fixed set are independent across
/// bytes, so the classifier kernels below retire several bytes per cycle.
///
/// Kernels, from most to least specialized:
///   - SSE2 (x86) / NEON (aarch64): 16 bytes per step via unsigned
///     range compares, when the set decomposes into <= 4 byte ranges
///     (true for every self-loop class in the benchmark grammars);
///     disabled by -DFLAP_NO_SIMD.
///   - portable: 8 bytes per step, word-at-a-time bitmap tests over
///     uint64_t limbs (no intrinsics, any platform); also the first
///     block of the SIMD path, so short runs skip vector set-up.
///
/// All kernels stop at exactly the first byte outside the set, so run
/// skipping is observationally identical to stepping the DFA — the
/// differential tests in tests/RunSkipDiffTest.cpp assert byte-identical
/// parses against the unstaged executable specification.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_RUNSKIP_H
#define FLAP_ENGINE_RUNSKIP_H

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__) && !defined(FLAP_NO_SIMD)
#include <emmintrin.h>
#define FLAP_RUNSKIP_SSE2 1
#elif defined(__ARM_NEON) && !defined(FLAP_NO_SIMD)
#include <arm_neon.h>
#define FLAP_RUNSKIP_NEON 1
#endif

/// Force-inlining for the hot-path helpers: the sink hooks (engine/
/// Sink.h) and skipRun, whose inlining into the drivers must not depend
/// on how large the including translation unit happens to be.
#if defined(__GNUC__) || defined(__clang__)
#define FLAP_SINK_INLINE __attribute__((always_inline)) inline
#else
#define FLAP_SINK_INLINE inline
#endif

namespace flap {

/// The set of bytes over which one machine state loops back to itself,
/// precomputed at staging time (per-state skip metadata).
struct SkipSet {
  /// 256-bit membership bitmap, limb C>>6, bit C&63.
  uint64_t Bits[4] = {0, 0, 0, 0};

  /// Range decomposition [Lo[i], Hi[i]] when the set is a union of at
  /// most MaxRanges closed byte ranges — the SIMD kernels' input form.
  /// NumRanges == 0 means empty or not decomposable (bitmap kernel).
  static constexpr int MaxRanges = 4;
  uint8_t NumRanges = 0;
  uint8_t Lo[MaxRanges] = {0, 0, 0, 0};
  uint8_t Hi[MaxRanges] = {0, 0, 0, 0};

  bool empty() const { return (Bits[0] | Bits[1] | Bits[2] | Bits[3]) == 0; }

  bool test(unsigned char C) const {
    return (Bits[C >> 6] >> (C & 63)) & 1u;
  }

  void set(unsigned char C) { Bits[C >> 6] |= uint64_t(1) << (C & 63); }

  /// Computes the range decomposition from the bitmap. Call once after
  /// the last set().
  void finalize() {
    NumRanges = 0;
    int Runs = 0;
    uint8_t RLo[MaxRanges], RHi[MaxRanges];
    int C = 0;
    while (C < 256) {
      if (!test(static_cast<unsigned char>(C))) {
        ++C;
        continue;
      }
      int B = C;
      while (C < 256 && test(static_cast<unsigned char>(C)))
        ++C;
      if (Runs == MaxRanges)
        return; // too fragmented: bitmap kernel only
      RLo[Runs] = static_cast<uint8_t>(B);
      RHi[Runs] = static_cast<uint8_t>(C - 1);
      ++Runs;
    }
    NumRanges = static_cast<uint8_t>(Runs);
    for (int I = 0; I < Runs; ++I) {
      Lo[I] = RLo[I];
      Hi[I] = RHi[I];
    }
  }
};

namespace detail {

/// Portable tail loop, byte at a time.
inline size_t skipRunBytes(const SkipSet &S, const char *P, size_t I,
                           size_t Len) {
  while (I < Len && S.test(static_cast<unsigned char>(P[I])))
    ++I;
  return I;
}

/// Portable kernel: 8 bytes per step, independent bitmap tests (the
/// word-at-a-time workhorse; also the first block of the SIMD path, so
/// short runs never pay vector set-up).
inline size_t skipRunPortable(const SkipSet &S, const char *P, size_t I,
                              size_t Len) {
  while (I + 8 <= Len) {
    uint32_t Miss = 0;
    for (int K = 0; K < 8; ++K) {
      unsigned char C = static_cast<unsigned char>(P[I + K]);
      Miss |= uint32_t(!S.test(C)) << K;
    }
    if (Miss)
      return I + static_cast<size_t>(__builtin_ctz(Miss));
    I += 8;
  }
  return skipRunBytes(S, P, I, Len);
}

#if defined(FLAP_RUNSKIP_SSE2)
/// SSE2 kernel: 16 bytes per step via unsigned range compares
/// (c >= lo  ⇔  max(c, lo) == c;  c <= hi  ⇔  min(c, hi) == c).
/// Never inlined: its vector constants would compete for the drivers'
/// registers, and left to GCC the choice moves call site by call site
/// with the size of the including translation unit (engine/README.md
/// "One scan kernel").
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
inline size_t skipRunSimd(const SkipSet &S, const char *P, size_t I,
                          size_t Len) {
  __m128i LoV[SkipSet::MaxRanges], HiV[SkipSet::MaxRanges];
  const int NR = S.NumRanges;
  for (int R = 0; R < NR; ++R) {
    LoV[R] = _mm_set1_epi8(static_cast<char>(S.Lo[R]));
    HiV[R] = _mm_set1_epi8(static_cast<char>(S.Hi[R]));
  }
  while (I + 16 <= Len) {
    __m128i V =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(P + I));
    __m128i In = _mm_setzero_si128();
    for (int R = 0; R < NR; ++R) {
      __m128i Ge = _mm_cmpeq_epi8(_mm_max_epu8(V, LoV[R]), V);
      __m128i Le = _mm_cmpeq_epi8(_mm_min_epu8(V, HiV[R]), V);
      In = _mm_or_si128(In, _mm_and_si128(Ge, Le));
    }
    unsigned M = static_cast<unsigned>(_mm_movemask_epi8(In));
    if (M != 0xffffu)
      return I + static_cast<size_t>(__builtin_ctz(~M));
    I += 16;
  }
  return skipRunBytes(S, P, I, Len);
}
#elif defined(FLAP_RUNSKIP_NEON)
/// NEON kernel: 16 bytes per step; movemask emulated with the narrowing
/// shift (4 result bits per lane). Never inlined, like the SSE2 kernel.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
inline size_t skipRunSimd(const SkipSet &S, const char *P, size_t I,
                          size_t Len) {
  uint8x16_t LoV[SkipSet::MaxRanges], HiV[SkipSet::MaxRanges];
  const int NR = S.NumRanges;
  for (int R = 0; R < NR; ++R) {
    LoV[R] = vdupq_n_u8(S.Lo[R]);
    HiV[R] = vdupq_n_u8(S.Hi[R]);
  }
  while (I + 16 <= Len) {
    uint8x16_t V = vld1q_u8(reinterpret_cast<const uint8_t *>(P + I));
    uint8x16_t In = vdupq_n_u8(0);
    for (int R = 0; R < NR; ++R)
      In = vorrq_u8(In, vandq_u8(vcgeq_u8(V, LoV[R]), vcleq_u8(V, HiV[R])));
    uint64_t M = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(In), 4)), 0);
    if (M != ~uint64_t(0))
      return I + static_cast<size_t>(__builtin_ctzll(~M) >> 2);
    I += 16;
  }
  return skipRunBytes(S, P, I, Len);
}
#endif

} // namespace detail

/// Advances \p I over the longest prefix of Input[I..Len) whose bytes are
/// all members of \p S; returns the index of the first non-member (or
/// Len). Exactly equivalent to `while (I < Len && S.test(P[I])) ++I`.
///
/// Cost model: the first 8 bytes go through the portable word kernel —
/// run-length statistics on the benchmark corpora put most runs under 8
/// bytes, where SIMD constant set-up would dominate. Only runs that
/// survive the first block hand off to the 16-wide SIMD kernel.
FLAP_SINK_INLINE size_t skipRun(const SkipSet &S, const char *P, size_t I,
                                size_t Len) {
  if (I + 8 <= Len) {
    uint32_t Miss = 0;
    for (int K = 0; K < 8; ++K) {
      unsigned char C = static_cast<unsigned char>(P[I + K]);
      Miss |= uint32_t(!S.test(C)) << K;
    }
    if (Miss)
      return I + static_cast<size_t>(__builtin_ctz(Miss));
    I += 8;
#if defined(FLAP_RUNSKIP_SSE2) || defined(FLAP_RUNSKIP_NEON)
    if (S.NumRanges > 0)
      return detail::skipRunSimd(S, P, I, Len);
#endif
    return detail::skipRunPortable(S, P, I, Len);
  }
  return detail::skipRunBytes(S, P, I, Len);
}

} // namespace flap

#endif // FLAP_ENGINE_RUNSKIP_H
