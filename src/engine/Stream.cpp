//===- engine/Stream.cpp - Push-style streaming parser ------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "engine/Stream.h"

#include "engine/Sink.h"

#include <algorithm>
#include <cassert>

using namespace flap;

StreamParser::StreamParser(const CompiledParser &Machine, ParseRequest Request)
    : M(&Machine), Req(Request), Budget(Request.MaxErrors),
      TrackRetain(Request.Mode == ParseMode::Values && Machine.Actions &&
                  Machine.Actions->readsInput()) {
  begin();
}

void StreamParser::begin() {
  // The entry contract shared with the request cores: value and event
  // streams refuse an undeclared ValueFree entry up front, as the one
  // Fatal diagnostic.
  StartNt = M->admit(Req, Res);
  if (StartNt == NoNt) {
    Diag = Res.Errors.back();
    Ph = Phase::Fail;
    return;
  }
  Stack.push_back(M->packNt(StartNt));
}

void StreamParser::reset() {
  Ph = Phase::Run;
  Buf.clear();
  WinBase = 0;
  Pos = 0;
  Park.Live = false;
  Stack.clear();
  Values.clear();
  NumVals = 0;
  Retain.clear();
  Res.clear();
  Diag = ParseDiagnostic();
  Misuse = nullptr;
  ErrOff = 0;
  Budget.reset();
  RePos = 0;
  ShadowLen = 0;
  LT = LineTracker();
  CarryHW = 0;
  // Deliberately kept: the warmed Pool arena, the machine/table
  // references, and every buffer's capacity — one StreamParser serves
  // many connections without re-paying its set-up. A between-connections
  // reset() is also the sanctioned point to move a StreamParser across
  // threads (the single-owner rule on ValuePool, see cfe/Value.h), so
  // re-adopt the arena here: debug owner asserts then track the new
  // serving thread instead of tripping on the old one's id.
  Pool->adoptOwner();
  begin();
}

// Final-value collection is the shared ValueStack::collect() policy —
// identical to the whole-buffer loop by construction.

inline void StreamParser::applyOp(const MicroOp &Op, ParseContext &Ctx) {
  if (!TrackRetain) {
    // Fast mode — the same shared dispatch as the whole-buffer loop
    // (every caller guarantees an MSlow op carries its ActionId in Imm;
    // see applyActionId). No action in this grammar reads lexeme text,
    // so the window never needs to cover argument spans: skip watermark
    // bookkeeping wholesale (ROADMAP follow-up (a)).
    Values.applyPooled(Op, *M->Actions, Ctx);
    return;
  }
  // Watermark of the result: tokens among the popped arguments (or
  // nested in structures built from them) are the only input references
  // the result can hold, so min over the retained arguments is a safe
  // bound. A scalar result provably holds none and releases the carry.
  // The sparse representation makes the common case — an action over
  // scalar arguments producing a scalar — a single compare.
  assert(NumVals == Values.size() && "value count out of sync");
  // MSlow occurrences carry the authoritative arity in the Action
  // record (the micro-op field is too narrow for >255-ary customs).
  const Action *Slow = Op.K == MicroOp::MSlow
                           ? &M->Actions->get(static_cast<ActionId>(Op.Imm))
                           : nullptr;
  const size_t Arity = Slow ? static_cast<size_t>(Slow->Arity) : Op.Arity;
  const size_t NewLen = NumVals - Arity;
  uint64_t Min = NoRetain;
  while (!Retain.empty() && Retain.back().Idx >= NewLen) {
    Min = std::min(Min, Retain.back().W);
    Retain.pop_back();
  }
  if (Slow)
    Values.apply(*Slow, Ctx);
  else
    Values.applyMicroOp(Op, Ctx);
  NumVals = NewLen + 1;
  if (Min != NoRetain) {
    const Value &R = Values.data()[NewLen];
    if (!R.isScalar())
      pushRetain(NewLen, Min);
  }
}

inline void StreamParser::applyActionId(ActionId A, ParseContext &Ctx) {
  MicroOp Op = M->Actions->micro()[A];
  if (Op.K == MicroOp::MSlow)
    Op.Imm = static_cast<int64_t>(A); // the table's MSlow ops carry no
                                      // ActionId (only pool occurrences
                                      // do); applyOp dispatches through Imm
  applyOp(Op, Ctx);
}

//===----------------------------------------------------------------------===//
// The streaming sink policies — the same compile-time contract as the
// whole-buffer sinks (engine/Sink.h), driven by the same residual loop
// (driveImpl with Streamed = true). Each is constructed per pump from
// (parser, context); hooks receive *absolute* stream offsets.
//===----------------------------------------------------------------------===//

/// Value mode: token pushes + pooled micro-op dispatch, with the
/// streaming extra the whole-buffer ValueSink does not need — retain
/// watermark bookkeeping, routed through StreamParser::applyOp.
struct StreamParser::VSink : FailSite {
  static constexpr bool Markers = true;
  static constexpr bool Enters = false;

  StreamParser &SP;
  ParseContext &Ctx;

  VSink(StreamParser &SP, ParseContext &Ctx) : SP(SP), Ctx(Ctx) {}

  FLAP_SINK_INLINE void enter(NtId) {}

  FLAP_SINK_INLINE void marker(uint32_t Idx) {
    SP.applyOp(SP.M->OpPool[Idx], Ctx);
  }

  FLAP_SINK_INLINE void token(uint64_t Meta, uint64_t Begin, uint64_t End) {
    const uint32_t Tok = CompiledParser::metaTok(Meta);
    if (Tok != CompiledParser::MetaNoTok) { // NoTok when skip or elided
      SP.Values.pushToken(static_cast<TokenId>(Tok),
                          static_cast<uint32_t>(Begin),
                          static_cast<uint32_t>(End));
      if (SP.TrackRetain)
        SP.pushRetain(SP.NumVals++, Begin);
    }
  }

  void eps(NtId, int32_t Chain) {
    if (!SP.TrackRetain) {
      // The same pre-fused block as the whole-buffer loop — literally:
      // one shared implementation (engine/Sink.h).
      runEpsProgram(*SP.M, Chain, SP.Values, Ctx);
      return;
    }
    const std::vector<ActionId> &ChainIds = SP.M->EpsChains[Chain];
    if (ChainIds.empty()) {
      SP.Values.pushUnit(); // scalar: no retain entry
      ++SP.NumVals;
    } else {
      for (ActionId A : ChainIds)
        SP.applyActionId(A, Ctx);
    }
  }

  /// The whole-buffer ValueSink's segment policy, plus the retain
  /// watermarks the segment's values held.
  void endSegment(bool Completed, ParseOutcome &Out) {
    if (Completed)
      Out.Values.push_back(SP.Values.collect());
    else
      SP.Values.clear();
    SP.NumVals = 0;
    SP.Retain.clear();
  }
};

/// Event mode: the library EventSink itself over the current window
/// (base = WinBase), so the streamed event stream is emitted by the
/// *same code* as a whole-buffer events request and the two cannot
/// drift. Token text is copied inside the hook into the undrained
/// outcome's arena — after it returns the window bytes are droppable,
/// which is what keeps the carry at O(in-progress lexeme).
struct StreamParser::ESink : EventSink {
  ESink(StreamParser &SP, ParseContext &Ctx)
      : EventSink(Ctx.Input, &SP.Res.Events, Ctx.Base, arenaOf(SP.Res)) {}

  static TextArena *arenaOf(ParseOutcome &O) {
    if (!O.Text)
      O.Text = std::make_shared<TextArena>();
    return O.Text.get();
  }
};

/// Recognize mode: the whole-buffer RecognizeSink itself, given the
/// streaming ctor shape — one set of no-op hooks to keep in lockstep
/// with the contract.
struct StreamParser::RSink : RecognizeSink {
  RSink(StreamParser &, ParseContext &) {}
};

void StreamParser::compact() {
  // Keep from offset() — the parse position, the parked lexeme's base or
  // the resync cursor — or from further back while a live value's
  // retain watermark reaches there (never mid-resynchronization: the
  // failed segment's values were collected or dropped at the failure).
  uint64_t KeepAbs = offset();
  if (!Retain.empty())
    KeepAbs = std::min(KeepAbs, Retain.back().RunMin);
  // Diagnostics need line/column for offsets whose prefix may be
  // compacted away: absorb the bytes once, before they go.
  if (KeepAbs > LT.ScannedTo)
    LT.advance(Buf.data() + static_cast<size_t>(LT.ScannedTo - WinBase),
               static_cast<size_t>(KeepAbs - LT.ScannedTo));
  size_t Cut = static_cast<size_t>(KeepAbs - WinBase);
  if (Cut != 0) {
    absorbShadow(Buf.data(), Cut);
    Buf.erase(0, Cut);
    WinBase += Cut;
    if (Ph == Phase::Resync) {
      RePos -= Cut;
      Pos = 0; // stale (the failure position); resync resolution resets it
    } else {
      Pos -= Cut;
    }
    if (Park.Live)
      Park.Sc.rebase(Cut);
  }
  // Sampled after the cut: what remains is exactly the carry crossing
  // into the next chunk (carryBytes()), not the just-fed chunk.
  if (Buf.size() > CarryHW)
    CarryHW = Buf.size();
}

StreamStatus StreamParser::recoverAt(const FailSite &F) {
  Diag = failureOf(*M, F);
  // Lazily absorb the window bytes up to the failure (compact() already
  // absorbed everything before the window).
  LT.locate(Buf.data(), WinBase, Diag);

  if (Budget.charge(Diag, M->SyncSpecs[StartNt].HasSync, Res.Truncated)) {
    // The error budget is spent (a strict stream's first failure), or
    // the grammar has no sync tokens: the diagnostic is Fatal.
    Res.Errors.push_back(Diag);
    releaseAfterError(F.FailOff);
    return StreamStatus::Error;
  }
  RePos = static_cast<size_t>(F.FailOff - WinBase);
  Stack.clear();
  Ph = Phase::Resync;
  return StreamStatus::NeedData; // drivePump() resumes the resync scan
}

bool StreamParser::stepResync(bool Final) {
  const size_t Len = Buf.size();
  size_t P = RePos;
  const size_t Q =
      M->findResume(StartNt, Buf.data(), P, Len, SyncShadow, ShadowLen);
  if (Q == CompiledParser::NoResume) {
    // Undecidable until more input arrives: park the cursor on the
    // first unresolved position; compact() keeps the window from there.
    RePos = P;
    if (!Final)
      return false;
    // End of stream: no viable re-entry point — same resolution as the
    // whole-buffer driver (a sync byte as the very last byte yields
    // SkipToEnd, not a phantom empty segment).
    Diag.Act = ParseDiagnostic::Action::SkipToEnd;
    Diag.ResumeOff = WinBase + Len;
    Pos = Len;
    Ph = Phase::Done;
  } else {
    // Viable: re-enter the machine at the entry nonterminal just past
    // the sync byte.
    Diag.Act = ParseDiagnostic::Action::Resync;
    Diag.ResumeOff = WinBase + Q;
    Pos = Q;
    Stack.push_back(M->packNt(StartNt));
    Ph = Phase::Run;
  }
  Res.Errors.push_back(std::move(Diag));
  return true;
}

StreamStatus StreamParser::misuse(const char *Msg, uint64_t ErrOffset) {
  Misuse = Msg;
  releaseAfterError(ErrOffset);
  return StreamStatus::Error;
}

void StreamParser::releaseAfterError(uint64_t ErrOffset) {
  // The post-error contract (Stream.h reset() doc): the diagnostic, its
  // position, and the *undrained outcome* are all an errored stream
  // keeps. The carry bytes, live values, retain watermarks, suspended
  // scan and symbol stack are released *now* — an errored parser
  // sitting in a connection pool holds no stale input or pool nodes
  // while it waits for take()/reset(). The outcome deliberately
  // survives: it is consumer *output*, already "sent" — dropping it
  // would make the delivered stream depend on when the consumer last
  // drained (the split-invariance tests compare the error-prefix
  // streams verbatim); a consumer that drains between feeds holds it
  // all anyway.
  Ph = Phase::Fail;
  ErrOff = ErrOffset;
  Stack.clear();
  Values.clear();
  NumVals = 0;
  Retain.clear();
  Park.Live = false;
  WinBase += Buf.size(); // streamedBytes() == WinBase + Buf.size() holds
  Buf.clear();
  Pos = 0;
}

/// One pump over the window: the shared residual loop (engine/Sink.h,
/// Streamed = true) resumes the parked scan and the symbol stack, then
/// the shared trailing-skip matcher absorbs what follows the entry's run.
/// Either one suspends (More) when the window ends mid-scan. A segment
/// that ended closes through the sink's endSegment, as in the
/// whole-buffer loop: a Trailing failure means a value *completed*
/// before the leftover input, so it ships; a parse failure drops the
/// partial (event mode keeps the partial events — they were delivered
/// at match time, as in a whole-buffer events request).
template <typename Tab, typename SinkT, bool Final>
StreamStatus StreamParser::pumpT() {
  const std::string_view W(Buf);
  ParseContext Ctx{W, Req.User, WinBase, Pool};
  SinkT Sk(*this, Ctx);
  DriveStatus St = DriveStatus::Done;
  if (Ph == Phase::Run)
    St = driveImpl<Tab, SinkT, Final, /*Streamed=*/true>(*M, W, Pos, Stack,
                                                         Sk, &Park, WinBase);
  if (St == DriveStatus::Done) {
    Ph = Phase::Trail;
    St = matchTrailingSkipT<Tab, Final, /*Streamed=*/true>(*M, W, Pos, &Park);
    if (St == DriveStatus::Fail)
      Sk.failTrailing(WinBase + Pos);
  }
  if (St == DriveStatus::More || (!Final && St == DriveStatus::Done))
    return StreamStatus::NeedData;
  Sk.endSegment(St == DriveStatus::Done || Sk.FailTrailing, Res);
  if (St == DriveStatus::Fail)
    return recoverAt(Sk);
  Ph = Phase::Done; // a clean end of stream
  return StreamStatus::Done;
}

template <bool Final> StreamStatus StreamParser::pump() {
  return scankernel::withWidth(M->Scan, [&](auto Width) {
    using Tab = decltype(Width);
    switch (Req.Mode) {
    case ParseMode::Values:
      return pumpT<Tab, VSink, Final>();
    case ParseMode::Events:
      return pumpT<Tab, ESink, Final>();
    case ParseMode::Recognize:
      break;
    }
    return pumpT<Tab, RSink, Final>();
  });
}

template <bool Final> StreamStatus StreamParser::drivePump() {
  // Without a failure this is one pump. A failure within the error
  // budget parks the stream in Phase::Resync; when the sync point is already
  // in the window the resync resolves immediately and parsing re-enters
  // — possibly several times per chunk on dense corruption. Termination
  // mirrors the whole-buffer driver: every re-entry point is strictly
  // past the previous failure offset.
  for (;;) {
    if (Ph == Phase::Resync && !stepResync(Final))
      return StreamStatus::NeedData; // suspended mid-resync
    if (Ph == Phase::Done)
      return StreamStatus::Done; // SkipToEnd resolution ended the stream
    if (Ph == Phase::Fail)
      return StreamStatus::Error;
    StreamStatus St = pump<Final>();
    if (Ph != Phase::Resync)
      return St;
  }
}

StreamStatus StreamParser::feed(std::string_view Chunk) {
  if (Ph == Phase::Fail)
    return StreamStatus::Error;
  if (Ph == Phase::Done) {
    if (Chunk.empty())
      return StreamStatus::Done;
    return misuse("feed() after finish()", WinBase + Pos);
  }
  // Token spans (and Lexeme offsets generally) are uint32: one stream is
  // limited to MaxSpanBytes, like a whole-buffer values parse. Fail
  // gracefully instead of letting absolute offsets wrap.
  if (WinBase + Buf.size() + Chunk.size() > MaxSpanBytes)
    return misuse(OffsetLimitMessage, WinBase + Buf.size());
  if (!Chunk.empty())
    Buf.append(Chunk.data(), Chunk.size());
  StreamStatus St = drivePump</*Final=*/false>();
  if (St == StreamStatus::Error)
    return St; // the error path already released the carry
  compact();
  return St;
}

StreamStatus StreamParser::finish() {
  if (Ph == Phase::Fail)
    return StreamStatus::Error;
  if (Ph == Phase::Done)
    return StreamStatus::Done;
  StreamStatus St = drivePump</*Final=*/true>();
  assert(St != StreamStatus::NeedData && "final pump cannot suspend");
  if (St == StreamStatus::Done) {
    // The stream is fully consumed; drop the carry (keeping offset() and
    // streamedBytes() pointing at the end of the stream).
    WinBase += Buf.size();
    Pos = 0;
    Buf.clear(); // keeps its capacity for the next stream (reset())
  }
  return St;
}

Result<Value> StreamParser::take() {
  switch (Ph) {
  case Phase::Done: {
    if (Res.Values.empty())
      return Value::unit();
    Value V = std::move(Res.Values.back());
    Res.Values.pop_back();
    return V;
  }
  case Phase::Fail:
    return Err(Misuse ? std::string(Misuse) : Diag.message());
  default:
    return Err("stream parse not finished (call finish())");
  }
}
