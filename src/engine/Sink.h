//===- engine/Sink.h - Zero-cost sink policies for the drivers -*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *Sink policy* seam of the execution tier. Every driver — the
/// whole-buffer residual loop in Compile.cpp and the streaming pump in
/// Stream.cpp — is one templated core parameterized by a compile-time
/// sink that decides what a finished lexeme, a marker occurrence and an
/// ε-fallback *mean*:
///
///   - ValueSink: today's semantics — push token values, run the pooled
///     micro-ops, collect the final Value. Bit-for-bit the behaviour the
///     pre-sink hand-specialized loops had.
///   - EventSink: SAX — append flat Enter/Token/Reduce/Eps events (see
///     ParseEvent in Compile.h). Token text views the caller's input in
///     the whole-buffer drivers; the streaming driver copies it into the
///     undrained batch's arena at match time, so it never needs to
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
/// Sink policy contract (duck-typed; the drivers require):
///
///   static constexpr bool Markers;  // true → drive the full PackedPool
///                                   //   (marker() delivered per
///                                   //   occurrence); false → NtPool
///   static constexpr bool Enters;   // true → enter() before every scan
///   void enter(NtId N);             // a scan of N begins
///   void token(uint64_t Meta, uint64_t Begin, uint64_t End);
///                                   // lexeme accepted; Meta is the
///                                   //   packed accept entry (token id
///                                   //   in the top 16 bits)
///   void marker(uint32_t OpIdx);    // marker occurrence (OpPool index)
///   void eps(NtId N, int32_t Chain);// ε/lookahead fallback taken
///   void failParse(NtId N, uint64_t Pos);   // the failure site
///   void failTrailing(uint64_t Pos);
///
/// The request cores (Compile.cpp) additionally call
///
///   void bind(std::string_view Input, ParseOutcome &Out, void *User);
///                                   // aim at the next input / outcome
///   void endSegment(bool Completed, ParseOutcome &Out);
///                                   // a segment ended: deliver its
///                                   //   value, or drop the partials
///
/// Event ordering, lexeme-text lifetime and the suspension interaction
/// are documented on ParseEvent (Compile.h) and in engine/README.md
/// ("The Sink policy").
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_SINK_H
#define FLAP_ENGINE_SINK_H

#include "engine/Compile.h"

#include <string>
#include <vector>

namespace flap {

/// The failure-site mix-in every sink shares: the drivers record where
/// and why a segment failed, and the request cores build the one
/// ParseDiagnostic from it (its message() is the string every path —
/// the Fig. 9 reference interpreter and the streaming parser included —
/// renders through the formatters in engine/Diagnostic.h).
struct FailSite {
  NtId FailNt = NoNt;   ///< failing nonterminal (parse failures)
  uint64_t FailOff = 0; ///< absolute failure offset
  bool FailTrailing = false;

  void failParse(NtId N, uint64_t Pos) {
    FailNt = N;
    FailOff = Pos;
    FailTrailing = false;
  }
  void failTrailing(uint64_t Pos) {
    FailNt = NoNt;
    FailOff = Pos;
    FailTrailing = true;
  }
};

/// The diagnostic for the failure site \p F records; line/column and the
/// recovery action are the caller's to fill.
inline ParseDiagnostic failureOf(const CompiledParser &M, const FailSite &F) {
  ParseDiagnostic D;
  D.K = F.FailTrailing ? ParseDiagnostic::Kind::Trailing
                       : ParseDiagnostic::Kind::Parse;
  D.Off = F.FailOff;
  if (!F.FailTrailing) {
    D.Nt = F.FailNt;
    D.Expected = M.NtExpected[F.FailNt];
    D.Where = M.NtNames[F.FailNt];
  }
  return D;
}

/// Runs a nonterminal's pre-fused ε-program (CompiledParser::
/// EpsProgram): the ONE implementation every value-producing driver —
/// whole-buffer ValueSink, the streaming pump's fast path, the event
/// replay — shares, so ε semantics cannot drift between them.
inline void runEpsProgram(const CompiledParser &M, int32_t Chain,
                          ValueStack &Values, ParseContext &Ctx) {
  const CompiledParser::EpsProgram &EP = M.EpsPrograms[Chain];
  switch (EP.K) {
  case CompiledParser::EpsProgram::Unit:
    Values.push(Value::unit());
    break;
  case CompiledParser::EpsProgram::OneConst:
    Values.push(EP.ConstVal);
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
  /// the per-input set-up inside a batch is this assignment.
  void bind(std::string_view Input, ParseOutcome &, void *User) {
    Ctx.Input = Input;
    Ctx.User = User;
  }

  FLAP_SINK_INLINE void enter(NtId) {}

  FLAP_SINK_INLINE void token(uint64_t Meta, uint64_t Begin, uint64_t End) {
    const uint32_t Tok = CompiledParser::metaTok(Meta);
    if (Tok != CompiledParser::MetaNoTok) // NoTok when skip or elided
      Values.push(Value::token(static_cast<TokenId>(Tok),
                               static_cast<uint32_t>(Begin),
                               static_cast<uint32_t>(End)));
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

private:
  const CompiledParser &M;
  ValueStack &Values;
  ParseContext Ctx;
  const MicroOp *Ops;
};

/// The SAX sink: every hook appends one flat ParseEvent — no per-event
/// allocation. A Token event's text views the input window (the
/// whole-buffer cores: valid while the caller's input is), or, given
/// a TextArena, a copy made inside the hook (the streaming pump: the
/// event then never references the window after the hook returns,
/// which is what lets the stream drop every byte behind the
/// in-progress lexeme).
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
    ParseEvent E;
    E.Kind = EventKind::Enter;
    E.Nt = N;
    Out->push_back(E);
  }

  void token(uint64_t Meta, uint64_t Begin, uint64_t End) {
    const uint32_t Tok = CompiledParser::metaTok(Meta);
    if (Tok == CompiledParser::MetaNoTok)
      return; // skip production, or dead-token elision: no value flows
    const char *P = Input.data() + static_cast<size_t>(Begin - Base);
    ParseEvent E;
    E.Kind = EventKind::Token;
    E.Tok = static_cast<TokenId>(Tok);
    E.Begin = Begin;
    E.End = End;
    E.TextData = Text ? Text->copy(P, static_cast<size_t>(End - Begin)) : P;
    Out->push_back(E);
  }

  void marker(uint32_t OpIdx) {
    ParseEvent E;
    E.Kind = EventKind::Reduce;
    E.Op = OpIdx;
    Out->push_back(E);
  }

  void eps(NtId N, int32_t) {
    ParseEvent E;
    E.Kind = EventKind::Eps;
    E.Nt = N;
    Out->push_back(E);
  }

  /// Events already appended stay, completed segment or not.
  void endSegment(bool, ParseOutcome &) {}

private:
  std::string_view Input;
  uint64_t Base = 0;
  std::vector<ParseEvent> *Out;
  TextArena *Text;
};

/// The recognition sink: no values, no events — every hook but the
/// failure record compiles away and the driver walks the
/// nonterminals-only NtPool.
struct RecognizeSink : FailSite {
  static constexpr bool Markers = false;
  static constexpr bool Enters = false;

  void bind(std::string_view, ParseOutcome &, void *) {}
  FLAP_SINK_INLINE void enter(NtId) {}
  FLAP_SINK_INLINE void token(uint64_t, uint64_t, uint64_t) {}
  FLAP_SINK_INLINE void marker(uint32_t) {}
  FLAP_SINK_INLINE void eps(NtId, int32_t) {}
  void endSegment(bool, ParseOutcome &) {}
};

} // namespace flap

#endif // FLAP_ENGINE_SINK_H
