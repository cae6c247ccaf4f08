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
///   - NullSink: recognition — every hook is a no-op and the driver
///     walks the nonterminals-only NtPool.
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
///   void failParse(NtId N, uint64_t Pos);   // diagnostics (may no-op)
///   void failTrailing(uint64_t Pos);
///
/// Event ordering, lexeme-text lifetime and the suspension interaction
/// are documented on ParseEvent (Compile.h) and in engine/README.md
/// ("The Sink policy").
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_SINK_H
#define FLAP_ENGINE_SINK_H

#include "engine/Compile.h"
#include "support/StrUtil.h"

#include <string>
#include <vector>

#if defined(__GNUC__) || defined(__clang__)
#define FLAP_SINK_INLINE __attribute__((always_inline)) inline
#else
#define FLAP_SINK_INLINE inline
#endif

namespace flap {

/// Shared diagnostics mix-in: renders the whole-buffer error strings
/// through the ONE formatter every path uses (engine/Diagnostic.h) and
/// records the failure site structurally, which is what the recovery
/// drivers read to build ParseDiagnostics. The differential suites
/// compare the strings verbatim against the Fig. 9 reference
/// interpreter and the streaming parser.
struct SinkDiagnostics {
  std::string ErrMsg;
  NtId FailNt = NoNt;       ///< failing nonterminal (parse failures)
  uint64_t FailOff = 0;     ///< absolute failure offset
  bool FailTrailing = false;

  void failParse(const CompiledParser &M, NtId N, uint64_t Pos) {
    FailNt = N;
    FailOff = Pos;
    FailTrailing = false;
    ErrMsg = formatParseErrorAt(Pos, M.NtExpected[N], M.NtNames[N]);
  }
  void failTrailing(uint64_t Pos) {
    FailNt = NoNt;
    FailOff = Pos;
    FailTrailing = true;
    ErrMsg = formatTrailingAt(Pos);
  }
};

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

/// The value-building sink: exactly the behaviour the hand-specialized
/// parse loop had — token pushes off the packed accept metadata, pooled
/// micro-op dispatch with the MSlow escape, pre-fused ε-programs, and
/// the shared ValueStack::collect() final-value policy.
class ValueSink : public SinkDiagnostics {
public:
  static constexpr bool Markers = true;
  static constexpr bool Enters = false;

  ValueSink(const CompiledParser &M, ParseScratch &Scr,
            std::string_view Input, void *User)
      : M(M), Values(Scr.Values), Ctx{Input, User, 0, Scr.Pool},
        Ops(M.OpPool.data()) {}

  /// Batch serving: re-aim the sink at the next input without
  /// reconstructing the context — the pool handle's refcount and the
  /// user pointer carry over untouched, so the per-input set-up inside
  /// parseBatch's loop is just this assignment (the caller resets the
  /// scratch separately).
  void rebind(std::string_view Input) { Ctx.Input = Input; }
  /// Per-input user-context variant, for the parseBatch overload that
  /// takes a Users array (context-accumulating grammars need one fresh
  /// context per document).
  void rebind(std::string_view Input, void *User) {
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

  void failParse(NtId N, uint64_t Pos) {
    SinkDiagnostics::failParse(M, N, Pos);
  }
  using SinkDiagnostics::failTrailing;

  /// The driver ran to completion (\p Ok): the collected value, or the
  /// recorded diagnostic. Either way the value stack is left empty, so
  /// a rebind()-reusing caller (parseBatch) needs no per-input reset.
  Result<Value> result(bool Ok) {
    if (!Ok) {
      Values.clear(); // drop the partial parse's values
      return Err(std::move(ErrMsg));
    }
    return Values.collect();
  }

  /// Recovery support: take the completed segment's value (the stack
  /// holds exactly the finished parse's values), or drop a failed
  /// segment's partial values.
  Value collectSegment() { return Values.collect(); }
  void discardPartial() { Values.clear(); }

private:
  const CompiledParser &M;
  ValueStack &Values;
  ParseContext Ctx;
  const MicroOp *Ops;
};

/// The SAX sink: every hook appends one flat ParseEvent — no per-event
/// allocation. A Token event's text views the input window (the
/// whole-buffer drivers: valid while the caller's input is), or, given
/// a TextArena, a copy made inside the hook (the streaming pump: the
/// event then never references the window after the hook returns,
/// which is what lets the stream drop every byte behind the
/// in-progress lexeme).
class EventSink : public SinkDiagnostics {
public:
  static constexpr bool Markers = true;
  static constexpr bool Enters = true;

  /// \p Window is the addressable input and \p Base its absolute stream
  /// offset (0 for whole-buffer parses; the carry-window base for the
  /// streaming pump, which reuses this sink so the two event streams
  /// cannot drift). \p Text, when set, receives a copy of every lexeme.
  EventSink(const CompiledParser &M, std::string_view Window,
            std::vector<ParseEvent> &Out, uint64_t Base = 0,
            TextArena *Text = nullptr)
      : M(M), Input(Window), Base(Base), Out(Out), Text(Text) {}

  void enter(NtId N) {
    ParseEvent E;
    E.Kind = EventKind::Enter;
    E.Nt = N;
    Out.push_back(E);
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
    Out.push_back(E);
  }

  void marker(uint32_t OpIdx) {
    ParseEvent E;
    E.Kind = EventKind::Reduce;
    E.Op = OpIdx;
    Out.push_back(E);
  }

  void eps(NtId N, int32_t) {
    ParseEvent E;
    E.Kind = EventKind::Eps;
    E.Nt = N;
    Out.push_back(E);
  }

  void failParse(NtId N, uint64_t Pos) {
    SinkDiagnostics::failParse(M, N, Pos);
  }
  using SinkDiagnostics::failTrailing;

  Status result(bool Ok) {
    if (!Ok)
      return Err(std::move(ErrMsg));
    return Status::success();
  }

private:
  const CompiledParser &M;
  std::string_view Input;
  uint64_t Base = 0;
  std::vector<ParseEvent> &Out;
  TextArena *Text;
};

/// The recognition sink: no values, no events, no diagnostics — every
/// hook compiles away and the driver walks the nonterminals-only NtPool,
/// exactly the code the hand-specialized recognize loop had.
struct NullSink {
  static constexpr bool Markers = false;
  static constexpr bool Enters = false;

  FLAP_SINK_INLINE void enter(NtId) {}
  FLAP_SINK_INLINE void token(uint64_t, uint64_t, uint64_t) {}
  FLAP_SINK_INLINE void marker(uint32_t) {}
  FLAP_SINK_INLINE void eps(NtId, int32_t) {}
  FLAP_SINK_INLINE void failParse(NtId, uint64_t) {}
  FLAP_SINK_INLINE void failTrailing(uint64_t) {}
};

/// Recognition-mode recovery sink: NullSink behaviour (no values, no
/// events, NtPool walk) plus the bare failure site — no strings; the
/// recovery driver builds the ParseDiagnostic from the recorded fields.
struct RecoverNullSink {
  static constexpr bool Markers = false;
  static constexpr bool Enters = false;

  NtId FailNt = NoNt;
  uint64_t FailOff = 0;
  bool FailTrailing = false;

  FLAP_SINK_INLINE void enter(NtId) {}
  FLAP_SINK_INLINE void token(uint64_t, uint64_t, uint64_t) {}
  FLAP_SINK_INLINE void marker(uint32_t) {}
  FLAP_SINK_INLINE void eps(NtId, int32_t) {}
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

} // namespace flap

#endif // FLAP_ENGINE_SINK_H
