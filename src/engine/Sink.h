//===- engine/Sink.h - Zero-cost sink policies for the drivers -*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *Sink policy* seam of the execution tier, and the one residual
/// loop it drives (driveImpl, below, with its trailing-skip matcher).
/// Every driver — the whole-buffer, batch and record loops in
/// Compile.cpp and the streaming pump in Stream.cpp — runs that one
/// templated core, parameterized by a compile-time sink that decides
/// what a finished lexeme, a marker occurrence and an ε-fallback *mean*:
///
///   - ValueSink: today's semantics — push token values, run the pooled
///     micro-ops, collect the final Value. Bit-for-bit the behaviour the
///     pre-sink hand-specialized loops had.
///   - EventSink: SAX — append flat Enter/Token/Reduce/Eps events (see
///     ParseEvent in Compile.h). Token text views the caller's input in
///     the whole-buffer drivers; the streaming driver copies it into the
///     undrained outcome's arena at match time, so it never needs to
///     retain input beyond the in-progress lexeme.
///   - RecognizeSink: recognition — every hook but the failure record
///     is a no-op and the driver walks the nonterminals-only NtPool.
///
/// The seam is *zero-cost by construction*: sinks are template
/// parameters, every hook is force-inlined, and the per-sink constants
/// (Markers, Enters) are `if constexpr` guards — each driver
/// instantiation specializes to exactly the code its hand-written
/// predecessor had (PR 2 measured 3-5% recognition loss when the
/// whole-buffer loops shared a kernel through run-time indirection;
/// BENCH_fig11.json gates the ValueSink instantiation against that).
///
/// Sink policy contract (duck-typed; the residual loop requires):
///
///   static constexpr bool Markers;  // true → drive the full PackedPool
///                                   //   (marker() delivered per
///                                   //   occurrence); false → NtPool
///   static constexpr bool Enters;   // true → enter() before every scan
///   void enter(NtId N);             // a scan of N begins
///   bool token(uint64_t Meta, uint64_t Begin, uint64_t End);
///                                   // lexeme accepted; Meta is the
///                                   //   packed accept entry (token id
///                                   //   in the top 16 bits); false:
///                                   //   past a sink limit, the run
///                                   //   fails (failLimit) right there
///   void marker(uint32_t OpIdx);    // marker occurrence (OpPool index)
///   void eps(NtId N, int32_t Chain);// ε/lookahead fallback taken
///   void failParse(NtId N, uint64_t Pos);   // the failure site
///   void failTrailing(uint64_t Pos);
///   void failLimit(NtId N, uint64_t Pos);
///
/// and every driver closes a segment through
///
///   void endSegment(bool Completed, ParseOutcome &Out);
///                                   // a segment ended: deliver its
///                                   //   value, or drop the partials
///
/// The request cores (Compile.cpp) additionally call
///
///   void bind(std::string_view Input, ParseOutcome &Out, void *User);
///                                   // aim at the next input / outcome
///
/// (ValueSink::bind also takes the window's absolute base, for the
/// streaming pump, which drives ValueSink and EventSink themselves.)
///
/// Event ordering, lexeme-text lifetime and the suspension interaction
/// are documented on ParseEvent (Compile.h) and in engine/README.md
/// ("The Sink policy").
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_SINK_H
#define FLAP_ENGINE_SINK_H

#include "engine/Compile.h"
#include "engine/ScanKernel.h"

#include <string>
#include <vector>

namespace flap {

/// The failure-site mix-in every sink shares: the drivers record where
/// and why a segment failed, and the request cores build the one
/// ParseDiagnostic from it (its message() is the string every path —
/// the Fig. 9 reference interpreter and the streaming parser included —
/// renders through the formatters in engine/Diagnostic.h).
struct FailSite {
  NtId FailNt = NoNt;   ///< failing nonterminal (parse and limit failures)
  uint64_t FailOff = 0; ///< absolute failure offset
  /// Parse, Trailing, or LimitExceeded (a token() hook refused a lexeme).
  ParseDiagnostic::Kind FailKind = ParseDiagnostic::Kind::Parse;

  void failParse(NtId N, uint64_t Pos) {
    FailNt = N;
    FailOff = Pos;
    FailKind = ParseDiagnostic::Kind::Parse;
  }
  void failTrailing(uint64_t Pos) {
    FailNt = NoNt;
    FailOff = Pos;
    FailKind = ParseDiagnostic::Kind::Trailing;
  }
  void failLimit(NtId N, uint64_t Pos) {
    FailNt = N;
    FailOff = Pos;
    FailKind = ParseDiagnostic::Kind::LimitExceeded;
  }
  bool failedTrailing() const {
    return FailKind == ParseDiagnostic::Kind::Trailing;
  }
};

/// The diagnostic for the failure site \p F records; line/column and the
/// recovery action are the caller's to fill.
inline ParseDiagnostic failureOf(const CompiledParser &M, const FailSite &F) {
  ParseDiagnostic D;
  D.K = F.FailKind;
  D.Off = F.FailOff;
  if (F.FailNt != NoNt) {
    D.Nt = F.FailNt;
    if (D.K == ParseDiagnostic::Kind::Parse)
      D.Expected = M.NtExpected[F.FailNt];
    D.Where = M.NtNames[F.FailNt];
  }
  return D;
}

/// Runs a nonterminal's pre-fused ε-program (CompiledParser::
/// EpsProgram): the ONE implementation every value-producing driver —
/// ValueSink, whole-buffer and streamed, and the event replay — shares,
/// so ε semantics cannot drift between them.
inline void runEpsProgram(const CompiledParser &M, int32_t Chain,
                          ValueStack &Values, ParseContext &Ctx) {
  const CompiledParser::EpsProgram &EP = M.EpsPrograms[Chain];
  switch (EP.K) {
  case CompiledParser::EpsProgram::Unit:
    Values.pushUnit();
    break;
  case CompiledParser::EpsProgram::OneConst:
    Values.pushCopy(EP.ConstVal);
    break;
  case CompiledParser::EpsProgram::Ops:
    Values.runChain(*M.Actions, M.EpsOps.data() + EP.Off, EP.Len,
                    EP.MaxGrow, Ctx);
    break;
  }
}

/// The value-building sink: token pushes off the packed accept
/// metadata, pooled micro-op dispatch with the MSlow escape, pre-fused
/// ε-programs, and the shared ValueStack::collect() final-value policy.
/// The streaming pump runs it too, aimed at the carry window (bind's
/// \p Base); for grammars whose actions read input, Stream.cpp's
/// RetainSink wraps it to keep the one retain watermark the carry needs.
class ValueSink : public FailSite {
public:
  static constexpr bool Markers = true;
  static constexpr bool Enters = false;

  ValueSink(const CompiledParser &M, ParseScratch &Scr)
      : M(M), Values(Scr.Values), Ctx{std::string_view(), nullptr, 0,
                                      Scr.Pool},
        Ops(M.OpPool.data()) {}

  /// Re-aims the sink at the next input without reconstructing the
  /// context — the pool handle's refcount carries over untouched, so
  /// the per-input set-up inside a batch is this assignment. \p Base is
  /// the absolute offset of Input[0]: 0 for a whole buffer, the window
  /// base for a stream.
  void bind(std::string_view Input, ParseOutcome &, void *User,
            uint64_t Base = 0) {
    Ctx.Input = Input;
    Ctx.User = User;
    Ctx.Base = Base;
  }

  FLAP_SINK_INLINE void enter(NtId) {}

  /// Never refuses: a values input is admitted only up to MaxSpanBytes.
  FLAP_SINK_INLINE bool token(uint64_t Meta, uint64_t Begin, uint64_t End) {
    const uint32_t Tok = CompiledParser::metaTok(Meta);
    if (Tok != CompiledParser::MetaNoTok) // NoTok when skip or elided
      Values.pushToken(static_cast<TokenId>(Tok),
                       static_cast<uint32_t>(Begin),
                       static_cast<uint32_t>(End));
    return true;
  }

  FLAP_SINK_INLINE void marker(uint32_t OpIdx) {
    Values.applyPooled(Ops[OpIdx], *M.Actions, Ctx);
  }

  void eps(NtId, int32_t Chain) {
    // One table-driven block per ε-marker chain (pre-fused at
    // compileFused time), not N apply round-trips.
    runEpsProgram(M, Chain, Values, Ctx);
  }

  /// Takes the completed segment's value (the stack holds exactly the
  /// finished parse's values) or drops a failed segment's partials.
  /// Either way the value stack is left empty, so a batch needs no
  /// per-input reset.
  void endSegment(bool Completed, ParseOutcome &Out) {
    if (Completed)
      Out.Values.push_back(Values.collect());
    else
      Values.clear();
  }

protected:
  const CompiledParser &M;
  ValueStack &Values;
  ParseContext Ctx;

private:
  const MicroOp *Ops;
};

#if defined(__GNUC__) || defined(__clang__)
#define FLAP_FLATTEN __attribute__((flatten))
#else
#define FLAP_FLATTEN
#endif

/// The SAX sink: every hook appends one flat 24-byte ParseEvent — no
/// per-event allocation — and builds it in its vector slot, never in a
/// local that push_back would copy: that copy reloads the record with
/// 16-byte loads straddling the narrower stores that just wrote it,
/// which store-to-load forwarding cannot serve (engine/README.md "The
/// Sink policy"). A Token event is constructed there from all four
/// fields (one store each); the other kinds take the defaulted fields —
/// Begin/Len zero, TextData null — and set KindId. Both narrowed fields
/// are checked limits: every id
/// fits the 30-bit id field (the static_asserts below and
/// CompiledParser::MaxOps), and token() refuses a lexeme longer than
/// ParseEvent::MaxLen — one predictable branch per Token event — which
/// fails the run there with a Fatal LimitExceeded diagnostic and keeps
/// the events before it. A Token event's text views the input window
/// (the whole-buffer cores: valid while the caller's input is), or,
/// given a TextArena, a copy made inside the hook (the streaming pump:
/// the event then never references the window after the hook returns,
/// which is what lets the stream drop every byte behind the in-progress
/// lexeme).
class EventSink : public FailSite {
public:
  static constexpr bool Markers = true;
  static constexpr bool Enters = true;

  /// \p Window is the addressable input and \p Base its absolute stream
  /// offset (0 for whole-buffer parses; the carry-window base for the
  /// streaming pump, which reuses this sink so the two event streams
  /// cannot drift). \p Text, when set, receives a copy of every lexeme.
  explicit EventSink(std::string_view Window = {},
                     std::vector<ParseEvent> *Out = nullptr,
                     uint64_t Base = 0, TextArena *Text = nullptr)
      : Input(Window), Base(Base), Out(Out), Text(Text) {}

  void bind(std::string_view Window, ParseOutcome &O, void *) {
    Input = Window;
    Out = &O.Events;
  }

  void enter(NtId N) {
    Out->emplace_back().KindId = ParseEvent::pack(EventKind::Enter, N);
  }

  /// Flattened: GCC 12, left to its heuristics, keeps the four-argument
  /// emplace_back out of line in Compile.cpp — a call per Token event.
  /// Flattening inlines it whole, its reallocation path on a cold branch.
  FLAP_FLATTEN bool token(uint64_t Meta, uint64_t Begin, uint64_t End) {
    const uint32_t Tok = CompiledParser::metaTok(Meta);
    if (Tok == CompiledParser::MetaNoTok)
      return true; // skip production, or dead-token elision: no value
    const uint64_t Len = End - Begin;
    if (__builtin_expect(Len > ParseEvent::MaxLen, 0))
      return false;
    const char *P = Input.data() + static_cast<size_t>(Begin - Base);
    if (Text)
      P = Text->copy(P, static_cast<size_t>(Len));
    Out->emplace_back(Begin, P, static_cast<uint32_t>(Len),
                      ParseEvent::pack(EventKind::Token, Tok));
    return true;
  }

  void marker(uint32_t OpIdx) {
    Out->emplace_back().KindId = ParseEvent::pack(EventKind::Reduce, OpIdx);
  }

  void eps(NtId N, int32_t) {
    Out->emplace_back().KindId = ParseEvent::pack(EventKind::Eps, N);
  }

  /// Events already appended stay, completed segment or not.
  void endSegment(bool, ParseOutcome &) {}

private:
  std::string_view Input;
  uint64_t Base = 0;
  std::vector<ParseEvent> *Out;
  TextArena *Text;
};

// Every id a hook packs fits ParseEvent's 30-bit id field; OpPool
// indices are bounded by CompiledParser::MaxOps at compile and audit time.
static_assert(CompiledParser::MaxPackedNts <= ParseEvent::MaxId);
static_assert(CompiledParser::MetaNoTok <= ParseEvent::MaxId);

/// The recognition sink: no values, no events — every hook but the
/// failure record compiles away and the driver walks the
/// nonterminals-only NtPool.
struct RecognizeSink : FailSite {
  static constexpr bool Markers = false;
  static constexpr bool Enters = false;

  void bind(std::string_view, ParseOutcome &, void *) {}
  FLAP_SINK_INLINE void enter(NtId) {}
  FLAP_SINK_INLINE bool token(uint64_t, uint64_t, uint64_t) { return true; }
  FLAP_SINK_INLINE void marker(uint32_t) {}
  FLAP_SINK_INLINE void eps(NtId, int32_t) {}
  void endSegment(bool, ParseOutcome &) {}
};

//===----------------------------------------------------------------------===//
// The residual machine (the generated code of Fig. 10)
//===----------------------------------------------------------------------===//

/// Every driveImpl and matchTrailingSkipT instantiation starts on a
/// 64-byte boundary, so where the linker happens to place a hot driver
/// cannot move its loop's offset within a cache line (and with it the
/// measured speed) when unrelated code grows or shrinks.
#if defined(__GNUC__) || defined(__clang__)
#define FLAP_HOT_ALIGN __attribute__((aligned(64)))
#else
#define FLAP_HOT_ALIGN
#endif

/// How one run of the residual loop (or the trailing-skip match) ended.
enum class DriveStatus : uint8_t {
  Done, ///< the run completed (the trailing match reached the window end)
  Fail, ///< the run failed (Sk.failParse has the site), or input other
        ///< than skip remains after the trailing match
  More  ///< the window ended mid-scan (streamed, not Final): the scan is
        ///< parked (and the residual loop's work item re-pushed)
};

/// The residual loop — ONE templated core for every driver, instantiated
/// per table width × sink policy × (Final, Streamed). Work items are
/// packed symbols on \p Stack, which the caller arms (the entry
/// nonterminal) or carries over from a suspended run: a matched
/// continuation whose tail starts with a nonterminal continues into it
/// directly (the generated code's direct tail call) instead of a stack
/// round-trip. The sink decides what tokens, markers and ε-fallbacks
/// *mean*: ValueSink builds values, RecognizeSink only records the
/// failure site (markers compiled out, NtPool walked), EventSink appends
/// the SAX stream. Every hook is force-inlined and every mode split is
/// an `if constexpr`, so each instantiation specializes to the code its
/// hand-written predecessor had — BENCH_fig11.json gates this.
///
/// A finished lexeme resolves its continuation through the packed
/// accept-metadata entry (one indexed load off the best state id; see
/// the fusion note in Compile.h) instead of three dependent array reads
/// — on json's terminal-accept structural bytes this removes the
/// dominant share of the per-lexeme residual-loop cost.
///
/// \p Streamed = true is the push-style stream (engine/Stream.h), which
/// differs in exactly three places: a scan parked in \p Park re-enters
/// through scanStep before anything else runs (the same attempt, so no
/// marker or Enter fires twice across a chunk boundary); a More outcome
/// parks the scan and re-pushes its work item; and the hooks see
/// absolute offsets, window offsets plus \p Base. With Streamed = false
/// (every whole-buffer, batch and record call) all three compile away.
///
/// \returns Done with \p Pos at the end of the entry's run (the caller
/// absorbs trailing skip input or stops a record there), Fail after
/// Sk.failParse recorded the site, or More.
template <typename Tab, typename Sink, bool Final = true, bool Streamed = false>
FLAP_HOT_ALIGN DriveStatus
driveImpl(const CompiledParser &M, std::string_view Window, size_t &Pos,
          std::vector<uint32_t> &Stack, Sink &Sk,
          scankernel::ParkedScan *Park = nullptr, uint64_t Base = 0) {
  static_assert(Final || Streamed, "only a streamed run can suspend");
  size_t P = Pos;
  const uint64_t B = Streamed ? Base : 0;
  const size_t Len = Window.size();
  const char *S = Window.data();
  const typename Tab::Cell *T = Tab::table(M.Scan);
  const SkipSet *Skip = M.Scan.Skip.data();
  const dispatchtier::Bounds Tr = M.Scan.Tiers;
  const uint64_t *Meta =
      Sink::Markers ? M.AccMeta.data() : M.AccNtMeta.data();
  const uint32_t *Pool = Sink::Markers ? M.PackedPool.data()
                                       : M.NtPool.data();
  bool Resume = Streamed && Park->Live;

  while (!Stack.empty()) {
    uint32_t E = Stack.back();
    Stack.pop_back();
    for (;;) {
      scankernel::ScanState Sc;
      scankernel::ScanOutcome O;
      if (Streamed && Resume) {
        // Re-enter the parked scan with the grown window, through the
        // general kernel (which subsumes the first-byte dispatch byte by
        // byte).
        Resume = false;
        Park->Live = false;
        Sc = Park->Sc;
        O = scankernel::scanStep<Tab, Final>(T, Skip, Tr, Sc, S, Len);
      } else {
        if constexpr (Sink::Markers) {
          if (E & CompiledParser::ActBit) {
            // Marker: the occurrence's micro-op (possibly rewritten by
            // dead-token elision); MSlow escapes into the full Action.
            Sk.marker(E & ~CompiledParser::ActBit);
            break;
          }
        }
        if constexpr (Sink::Enters)
          Sk.enter(CompiledParser::packedNt(E));
        // The residual loop: branch on characters only.
        O = scankernel::scanEnter<Tab, Final>(T, Skip, Tr, E & 0xffffu, P,
                                              S, Len, Sc);
      }
      if constexpr (!Final) {
        if (O == scankernel::ScanOutcome::More) {
          Stack.push_back(E); // the next window's run pops it back
          Park->Sc = Sc;
          Park->Live = true;
          Pos = P;
          return DriveStatus::More;
        }
      }
      // Past More, a scan matched exactly when Sc.Bs >= 0. Branching on
      // that register rather than on the returned outcome measured ~4%
      // faster on small-document json parses with gcc 12.
      (void)O;
      P = Sc.Base; // a failed scan absorbed committed F2 whitespace too
      if (Sc.Bs >= 0) {
        const uint64_t Mt = Meta[Sc.Bs]; // one load: token + packed tail
        if (!Sk.token(Mt, B + P, B + Sc.BestEnd)) {
          // A lexeme past the sink's limit (EventSink: ParseEvent::
          // MaxLen) ends the run at its start; the sinks that never
          // refuse compile this away.
          Sk.failLimit(CompiledParser::packedNt(E), B + P);
          Pos = P;
          return DriveStatus::Fail;
        }
        P = Sc.BestEnd;
        const uint32_t TL = CompiledParser::metaLen(Mt);
        if (TL != 0) {
          const uint32_t TO = CompiledParser::metaOff(Mt);
          for (uint32_t J = TL; J-- > 1;)
            Stack.push_back(Pool[TO + J]);
          E = Pool[TO]; // direct continuation into the first tail symbol
          continue;
        }
        break;
      }
      NtId N = CompiledParser::packedNt(E);
      int32_t EpsChain = M.Nts[N].EpsChain;
      if (EpsChain >= 0) {
        Sk.eps(N, EpsChain);
        break;
      }
      Sk.failParse(N, B + P);
      Pos = P;
      return DriveStatus::Fail;
    }
  }
  Pos = P;
  return DriveStatus::Done;
}

/// Absorbs trailing F2 whitespace from \p Pos: rescans the skip
/// nonterminal until it fails or matches empty, leaving \p Pos at the
/// offset reached. The one trailing-skip matcher of the whole-buffer,
/// record and streamed drivers; like driveImpl, a streamed call resumes
/// a scan parked in \p Park first and, not Final, parks one on More.
/// \returns Done when \p Pos reached the window's end, Fail when other
/// input remains there, or More.
template <typename Tab, bool Final = true, bool Streamed = false>
FLAP_HOT_ALIGN DriveStatus
matchTrailingSkipT(const CompiledParser &M, std::string_view Window,
                   size_t &Pos, scankernel::ParkedScan *Park = nullptr) {
  const size_t Len = Window.size();
  const typename Tab::Cell *T = Tab::table(M.Scan);
  const SkipSet *Skip = M.Scan.Skip.data();
  const dispatchtier::Bounds Tr = M.Scan.Tiers;
  while (M.SkipState >= 0) {
    scankernel::ScanState Sc;
    scankernel::ScanOutcome O;
    if (Streamed && Park->Live) {
      Park->Live = false;
      Sc = Park->Sc;
      O = scankernel::scanStep<Tab, Final>(T, Skip, Tr, Sc,
                                           Window.data(), Len);
    } else {
      if (Pos >= Len)
        break;
      O = scankernel::scanEnter<Tab, Final>(
          T, Skip, Tr, static_cast<uint32_t>(M.SkipState), Pos,
          Window.data(), Len, Sc);
    }
    if constexpr (!Final) {
      if (O == scankernel::ScanOutcome::More) {
        Park->Sc = Sc;
        Park->Live = true;
        return DriveStatus::More;
      }
    }
    if (O != scankernel::ScanOutcome::Match || Sc.BestEnd == Pos)
      break;
    Pos = Sc.BestEnd;
  }
  return Pos == Len ? DriveStatus::Done : DriveStatus::Fail;
}

} // namespace flap

#endif // FLAP_ENGINE_SINK_H
