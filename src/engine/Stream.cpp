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
  Scr.Stack.push_back(M->packNt(StartNt));
}

void StreamParser::reset() {
  Ph = Phase::Run;
  Buf.clear();
  WinBase = 0;
  Pos = 0;
  Park.Live = false;
  Scr.reset();
  RetainTop = 0;
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
  Scr.Pool->adoptOwner();
  begin();
}

//===----------------------------------------------------------------------===//
// The streaming sinks are the library sinks (engine/Sink.h), aimed at the
// window with its base, driven by the same residual loop (driveImpl with
// Streamed = true): hooks receive *absolute* stream offsets. Event mode's
// EventSink copies token text into the undrained outcome's arena inside
// the hook, so the window bytes are droppable once it returns — the
// carry stays O(in-progress lexeme).
//===----------------------------------------------------------------------===//

/// Value mode for a grammar whose actions read input: the library
/// ValueSink, plus the retain watermark compact() honours (Stream.h,
/// "Memory model"). The watermark lives in the sink's own members for
/// the pump and goes back to the parser when the sink dies.
struct StreamParser::RetainSink : ValueSink {
  StreamParser &SP;
  size_t Top;   ///< the lowest retaining slot plus one; 0: none
  uint64_t Off; ///< the absolute offset it retains from

  RetainSink(StreamParser &SP, std::string_view Window)
      : ValueSink(*SP.M, SP.Scr), SP(SP), Top(SP.RetainTop),
        Off(SP.RetainOff) {
    bind(Window, SP.Res, SP.Req.User, SP.WinBase);
  }
  RetainSink(const RetainSink &) = delete;
  RetainSink &operator=(const RetainSink &) = delete;
  ~RetainSink() {
    SP.RetainTop = Top;
    SP.RetainOff = Off;
  }

  FLAP_SINK_INLINE bool token(uint64_t Meta, uint64_t Begin, uint64_t End) {
    ValueSink::token(Meta, Begin, End);
    if (Top == 0 &&
        CompiledParser::metaTok(Meta) != CompiledParser::MetaNoTok) {
      Top = Values.size();
      Off = Begin;
    }
    return true;
  }

  FLAP_SINK_INLINE void marker(uint32_t OpIdx) {
    ValueSink::marker(OpIdx);
    settle();
  }

  void eps(NtId N, int32_t Chain) {
    const CompiledParser::EpsProgram &EP = M.EpsPrograms[Chain];
    if (EP.K != CompiledParser::EpsProgram::Ops) {
      // One push of a constant: nothing retaining is consumed or made.
      ValueSink::eps(N, Chain);
      return;
    }
    // An op may pop below the program's entry height, consuming values
    // pushed before the fallback, so the rule runs after every op.
    for (uint32_t I = 0; I < EP.Len; ++I) {
      Values.applyMicro(*M.Actions, M.EpsOps[EP.Off + I], Ctx);
      settle();
    }
  }

  void endSegment(bool Completed, ParseOutcome &Out) {
    ValueSink::endSegment(Completed, Out);
    Top = 0;
  }

private:
  /// After an action: if it consumed the lowest retaining slot, its
  /// result (now the top slot) inherits the watermark — the lowest
  /// retaining argument's offset, the min over them all — unless it is a
  /// scalar, which references no input.
  FLAP_SINK_INLINE void settle() {
    const size_t N = Values.size();
    if (Top >= N)
      Top = Values.data()[N - 1].isScalar() ? 0 : N;
  }
};

void StreamParser::compact() {
  // Keep from offset() — the parse position, the parked lexeme's base or
  // the resync cursor — or from further back while a live value's
  // retain watermark reaches there (never mid-resynchronization: the
  // failed segment's values were collected or dropped at the failure).
  uint64_t KeepAbs = offset();
  if (RetainTop != 0)
    KeepAbs = std::min(KeepAbs, RetainOff);
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
  Scr.Stack.clear();
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
    Scr.Stack.push_back(M->packNt(StartNt));
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
  // keeps. The carry bytes, live values, retain watermark, suspended
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
  Scr.reset();
  RetainTop = 0;
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
template <typename Tab, bool Final, typename SinkT>
StreamStatus StreamParser::pumpT(SinkT &Sk) {
  const std::string_view W(Buf);
  DriveStatus St = DriveStatus::Done;
  if (Ph == Phase::Run)
    St = driveImpl<Tab, SinkT, Final, /*Streamed=*/true>(
        *M, W, Pos, Scr.Stack, Sk, &Park, WinBase);
  if (St == DriveStatus::Done) {
    Ph = Phase::Trail;
    St = matchTrailingSkipT<Tab, Final, /*Streamed=*/true>(*M, W, Pos, &Park);
    if (St == DriveStatus::Fail)
      Sk.failTrailing(WinBase + Pos);
  }
  if (St == DriveStatus::More || (!Final && St == DriveStatus::Done))
    return StreamStatus::NeedData;
  Sk.endSegment(St == DriveStatus::Done || Sk.failedTrailing(), Res);
  if (St == DriveStatus::Fail)
    return recoverAt(Sk);
  Ph = Phase::Done; // a clean end of stream
  return StreamStatus::Done;
}

template <bool Final> StreamStatus StreamParser::pump() {
  const std::string_view W(Buf);
  return scankernel::withWidth(M->Scan, [&](auto Width) {
    using Tab = decltype(Width);
    switch (Req.Mode) {
    case ParseMode::Values: {
      if (TrackRetain) {
        RetainSink Sk(*this, W);
        return pumpT<Tab, Final>(Sk);
      }
      ValueSink Sk(*M, Scr);
      Sk.bind(W, Res, Req.User, WinBase);
      return pumpT<Tab, Final>(Sk);
    }
    case ParseMode::Events: {
      if (!Res.Text)
        Res.Text = std::make_shared<TextArena>();
      EventSink Sk(W, &Res.Events, WinBase, Res.Text.get());
      return pumpT<Tab, Final>(Sk);
    }
    case ParseMode::Recognize:
      break;
    }
    RecognizeSink Sk;
    return pumpT<Tab, Final>(Sk);
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
