//===- engine/ScanKernel.h - Resumable longest-match scan ------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-nonterminal longest-match scan of the staged machine — the
/// one scan automaton every engine path runs: the residual loop and the
/// trailing-skip matcher (src/engine/Sink.h), which every whole-buffer,
/// batch, record and streamed parse drives, and the standalone
/// CompiledLexer / StreamLexer (src/lexer/CompiledLexer.cpp).
///
/// The scan's complete register file is a ScanState: the current DFA
/// state, the lexeme base (advanced in place over committed F2
/// whitespace), the best accepting state and its end, and the read
/// cursor. scanCore() advances those registers over the addressable
/// window and reports one of
///
///   - Match: a longest match is decided (Bs, [Base, BestEnd));
///   - Fail:  no production matches at Base (after absorbing any
///            committed whitespace) — the caller falls back to the
///            nonterminal's ε/lookahead chain or reports an error;
///   - More:  the window ended before the longest match was decided
///            (only when Final = false). The registers stay valid: the
///            caller may re-enter the kernel with more bytes appended to
///            the window, and the scan continues mid-lexeme — including
///            mid-run inside the SIMD skip kernels, which are exactly
///            equivalent to stepping the DFA byte-at-a-time.
///
/// Lexeme *entry* goes through scanEnter(): the first-byte dispatch off
/// the start state's transition row under the dispatch-tier encoding
/// (see Compile.h). One indexed load classifies the entry — dead,
/// committed F2 whitespace run (consume, commit, re-dispatch in place),
/// terminal accept (the lexeme is decided by the dispatch byte alone),
/// pure accepting run (the bulk-classified run is the rest of the
/// lexeme), or a general scan continued by scanCore. With Final = false
/// an empty window suspends *on the dispatch byte*: the parked register
/// file is the entry state itself, and resuming simply re-enters the
/// general kernel (which subsumes the dispatch classification byte by
/// byte).
///
/// The Final flag is a template parameter so the whole-buffer
/// instantiation (scanEnter<Tab, true>) folds every More path away.
/// scanEnter and scanCore are force-inlined: the whole-buffer residual
/// loop keeps the register file in registers across the call, so the
/// shared kernel costs nothing over a hand-inlined copy (BENCH_fig11.json
/// gates this). tests/StreamDiffTest.cpp and tests/SinkDiffTest.cpp
/// assert byte-identical streaming vs whole-buffer behaviour at every
/// chunk split point, tests/RunSkipDiffTest.cpp pins the kernel to the
/// Fig. 9 interpreter, and tests/LexerTest.cpp pins the lexer
/// instantiation to the reference lexer interpreter.
///
/// All positions in a ScanState are window-relative; streaming callers
/// maintain the window-base-to-absolute-offset mapping, park a
/// suspended scan in a ParkedScan, and rebase it when they compact the
/// carry buffer.
///
/// Determinism of this kernel is also what the data-parallel shard tier
/// (engine/Shard.h) leans on: because every scan decision is a pure
/// function of the tables and the bytes, a speculative shard parse that
/// entered at the right offset produced *the* answer, so shard
/// verification is a single offset compare — the speculated entry
/// offset against the previous shard's exit offset — with no state or
/// output re-validation. The sync-byte classifiers the shard planner
/// reuses to pick candidate entry offsets live in Compile.h (SyncSpec:
/// skipRun over NotSync + admissible), not here.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_SCANKERNEL_H
#define FLAP_ENGINE_SCANKERNEL_H

#include "engine/DispatchTier.h"
#include "engine/RunSkip.h"

#include <cstddef>
#include <cstdint>

namespace flap {
namespace scankernel {

/// Table-width traits: the scan and residual loop are instantiated once
/// per width, so no `Small ?` branch or pointer re-selection survives
/// into the per-scan path.
struct Tab8 {
  using Cell = uint8_t;
  static const Cell *table(const ScanTables &T) { return T.Trans8.data(); }
  static bool dead(Cell V) { return V == ScanTables::Dead8; }
};
struct Tab16 {
  using Cell = int16_t;
  static const Cell *table(const ScanTables &T) { return T.Trans16.data(); }
  static bool dead(Cell V) { return V < 0; }
};

/// The one run-time width switch: calls \p F with Tab8{} when the
/// machine has the 8-bit table, else Tab16{}, so a driver names its
/// instantiation once (`using Tab = decltype(Width)`).
template <typename Fn>
FLAP_SINK_INLINE decltype(auto) withWidth(const ScanTables &T, Fn &&F) {
  return T.Trans8.empty() ? F(Tab16{}) : F(Tab8{});
}

/// Marks a width lambda that runs a force-inlined kernel itself (the
/// lexer's per-lexeme scan), so the kernel lands in the caller as it
/// would without the lambda: `[&](auto Width) FLAP_WIDTH_INLINE {...}`.
#if defined(__GNUC__) || defined(__clang__)
#define FLAP_WIDTH_INLINE __attribute__((always_inline))
#else
#define FLAP_WIDTH_INLINE
#endif

/// The scan's complete register file; see the file comment. A suspended
/// scan (More) is resumed by re-entering scanStep() with the same state
/// and a longer window.
struct ScanState {
  uint32_t Start;  ///< the nonterminal's start state (for in-place rescans)
  uint32_t Cur;    ///< current DFA state
  int32_t Bs;      ///< best accepting state in [0, NumAccept), or -1
  size_t Base;     ///< lexeme base, advanced over committed F2 whitespace
  size_t BestEnd;  ///< end of the best match
  size_t I;        ///< read cursor (first unconsumed byte)

  /// Rebases the registers after the window's first \p Cut bytes were
  /// dropped (\p Cut never exceeds Base).
  void rebase(size_t Cut) {
    Base -= Cut;
    BestEnd -= Cut;
    I -= Cut;
  }
};

/// Initial registers for scanning a nonterminal whose start state is
/// \p Start at window position \p Pos.
inline ScanState scanBegin(uint32_t Start, size_t Pos) {
  return {Start, Start, -1, Pos, Pos, Pos};
}

/// A scan suspended (More) between two windows: the streaming parser's
/// whole lexing state. The next window re-enters it through scanStep().
struct ParkedScan {
  ScanState Sc{};
  bool Live = false; ///< a scan is parked in Sc
};

enum class ScanOutcome : uint8_t { Match, Fail, More };

/// The scan loop proper. Per byte: one table load, one dead test, one
/// register compare against NumAccept. Accelerations diverting from the
/// byte loop:
///
///   - a transition that stays in the same state hands the run to the
///     bulk classifier (RunSkip.h), guarded by a one-byte lookahead so
///     length-1 runs pay nothing extra;
///   - a transition into the terminal-accept tier decides the match
///     without probing the next byte (no continuation exists), and a
///     self-loop run in the pure-accepting tier ends the lexeme at the
///     run's end — both are register compares on the dispatch-tier id;
///   - a finished lexeme whose best state is in the self-skip tier is F2
///     whitespace — the machine would select a continuation that rescans
///     this same nonterminal, so the scan restarts in place instead of
///     returning through the residual loop. That holds at end of input
///     too (with Final = true): the rescan is a jump back into the loop,
///     not a recursive call, so the kernel stays inlinable.
///
/// With Final = false, running out of window suspends (More) instead of
/// treating the window end as end of input; the end-of-input self-skip
/// commitment must not run early, because one more byte could extend
/// either the whitespace run or a longer token match.
///
/// \returns the outcome; the final register file is stored to \p St.
/// \p St is an out-parameter (not in/out) so the hot loop runs entirely
/// on the by-value registers.
template <typename Tab, bool Final>
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline ScanOutcome
scanCore(const typename Tab::Cell *T, const SkipSet *Skip,
         dispatchtier::Bounds Tr, uint32_t Start, uint32_t Cur, int32_t Bs,
         size_t Base, size_t BestEnd, size_t I, const char *S, size_t Len,
         ScanState &St) {
  const int32_t NumSelfSkip = Tr.SelfSkip;
  const int32_t NumAccept = Tr.Accept;
  const int32_t NumTermAcc = Tr.TermAcc;
  const int32_t NumPureAcc = Tr.PureAcc;
Rescan:
  while (I < Len) {
    typename Tab::Cell Next =
        T[Cur * 256 + static_cast<unsigned char>(S[I])];
    if (Tab::dead(Next)) {
      if (static_cast<uint32_t>(Bs) < static_cast<uint32_t>(NumSelfSkip)) {
        // Committed F2 whitespace: consume it and rescan in place.
        Base = BestEnd;
        I = BestEnd;
        Cur = Start;
        Bs = -1;
        continue;
      }
      St = {Start, Cur, Bs, Base, BestEnd, I};
      return Bs >= 0 ? ScanOutcome::Match : ScanOutcome::Fail;
    }
    ++I;
    if (static_cast<uint32_t>(Next) == Cur) {
      // Self-loop taken: the state is unchanged across the whole run, so
      // acceptance is decided once and BestEnd jumps to the run's end.
      const SkipSet &SS = Skip[Cur];
      if (I < Len && SS.test(static_cast<unsigned char>(S[I])))
        I = skipRun(SS, S, I + 1, Len);
      if (static_cast<int32_t>(Cur) < NumAccept) {
        Bs = static_cast<int32_t>(Cur);
        BestEnd = I;
        // Pure accepting run: nothing leaves the run but death, so the
        // run's end is the longest match — unless the window ended
        // mid-run (not Final), where one more byte could extend it.
        if (static_cast<uint32_t>(Cur - static_cast<uint32_t>(NumTermAcc)) <
                static_cast<uint32_t>(NumPureAcc - NumTermAcc) &&
            (Final || I < Len)) {
          St = {Start, Cur, Bs, Base, BestEnd, I};
          return ScanOutcome::Match;
        }
      }
      continue;
    }
    Cur = static_cast<uint32_t>(Next);
    if (static_cast<int32_t>(Cur) < NumAccept) {
      Bs = static_cast<int32_t>(Cur);
      BestEnd = I;
      // Terminal accept: no continuation exists, the match is decided
      // without probing the next byte's transition (window-independent).
      if (static_cast<uint32_t>(Cur - static_cast<uint32_t>(NumSelfSkip)) <
          static_cast<uint32_t>(NumTermAcc - NumSelfSkip)) {
        St = {Start, Cur, Bs, Base, BestEnd, I};
        return ScanOutcome::Match;
      }
    }
  }
  // Window exhausted.
  if (!Final) {
    St = {Start, Cur, Bs, Base, BestEnd, I};
    return ScanOutcome::More;
  }
  // End of input. A best match in the self-skip tier is F2 whitespace:
  // consume it and rescan the remaining suffix — which may still hold a
  // shorter token match — exactly like the dead-transition path above.
  // Each rescan starts past a nonempty lexeme, so this terminates.
  if (static_cast<uint32_t>(Bs) < static_cast<uint32_t>(NumSelfSkip)) {
    Base = BestEnd;
    Bs = -1;
    if (BestEnd < Len) {
      I = BestEnd;
      Cur = Start;
      goto Rescan;
    }
  }
  St = {Start, Cur, Bs, Base, BestEnd, I};
  return Bs >= 0 ? ScanOutcome::Match : ScanOutcome::Fail;
}

/// Resumable entry point for streaming callers: runs scanCore from the
/// register file in \p St and stores the updated file back on exit, so a
/// More outcome can be re-entered after the window grows. Used for
/// *resuming* a suspended scan; fresh scans enter through scanEnter.
template <typename Tab, bool Final>
inline ScanOutcome scanStep(const typename Tab::Cell *T, const SkipSet *Skip,
                            dispatchtier::Bounds Tr, ScanState &St,
                            const char *S, size_t Len) {
  return scanCore<Tab, Final>(T, Skip, Tr, St.Start, St.Cur, St.Bs, St.Base,
                              St.BestEnd, St.I, S, Len, St);
}

/// Fresh-scan entry point: the first-byte dispatch (see the file
/// comment), falling through to scanCore for general entries. An empty
/// window (or a committed whitespace run reaching the window's end)
/// suspends on the dispatch byte: St holds the entry registers and a
/// later scanStep re-enters the general kernel, which re-derives the
/// classification byte by byte.
template <typename Tab, bool Final>
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline ScanOutcome
scanEnter(const typename Tab::Cell *T, const SkipSet *Skip,
          dispatchtier::Bounds Tr, uint32_t Start, size_t Pos, const char *S,
          size_t Len, ScanState &St) {
  for (;;) {
    if (Pos >= Len) {
      St = scanBegin(Start, Pos);
      return Final ? ScanOutcome::Fail : ScanOutcome::More;
    }
    typename Tab::Cell D =
        T[Start * 256 + static_cast<unsigned char>(S[Pos])];
    if (Tab::dead(D)) {
      St = scanBegin(Start, Pos);
      return ScanOutcome::Fail;
    }
    const int32_t Ds = static_cast<int32_t>(static_cast<uint32_t>(D));
    const size_t I = Pos + 1;
    if (Ds < Tr.PureSkip) {
      // Pure F2 whitespace run: nothing leaves the run but death, so the
      // run's end *within the input* is the lexeme's end and the scan
      // commits and re-dispatches in place. A run reaching the window's
      // end is different: that is not a lexeme boundary (a comment
      // interior, say, cannot restart a skip lexeme), so the scan
      // suspends mid-run with the base uncommitted, exactly like the
      // general kernel. One-byte lookahead: length-1 runs skip the bulk
      // classifier's block set-up.
      const SkipSet &SS = Skip[Ds];
      const size_t E = (I < Len && SS.test(static_cast<unsigned char>(S[I])))
                           ? skipRun(SS, S, I + 1, Len)
                           : I;
      if (!Final && E == Len) {
        St = {Start, static_cast<uint32_t>(Ds), Ds, Pos, E, E};
        return ScanOutcome::More;
      }
      Pos = E;
      continue; // re-dispatch in place
    }
    if (Ds >= Tr.SelfSkip && Ds < Tr.PureAcc) {
      if (Ds < Tr.TermAcc) { // terminal accept: decided by the dispatch
        St = {Start, static_cast<uint32_t>(Ds), Ds, Pos, I, I};
        return ScanOutcome::Match;
      }
      // Pure accepting run: the run is the rest of the lexeme; decided
      // at its end unless the window ended mid-run (one-byte lookahead
      // as above).
      const SkipSet &SS = Skip[Ds];
      const size_t E =
          (I < Len && SS.test(static_cast<unsigned char>(S[I])))
              ? skipRun(SS, S, I + 1, Len)
              : I;
      St = {Start, static_cast<uint32_t>(Ds), Ds, Pos, E, E};
      return (Final || E < Len) ? ScanOutcome::Match : ScanOutcome::More;
    }
    // General scan (impure self-skip, other accepting, non-accepting).
    const int32_t Bs0 = Ds < Tr.Accept ? Ds : -1;
    return scanCore<Tab, Final>(T, Skip, Tr, Start, static_cast<uint32_t>(Ds),
                                Bs0, Pos, Bs0 >= 0 ? I : Pos, I, S, Len, St);
  }
}

} // namespace scankernel
} // namespace flap

#endif // FLAP_ENGINE_SCANKERNEL_H
