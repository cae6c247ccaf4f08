//===- engine/Stream.cpp - Push-style streaming parser ------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "engine/Stream.h"

#include "engine/Sink.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>

using namespace flap;
using scankernel::ScanOutcome;
using scankernel::Tab16;
using scankernel::Tab8;

StreamParser::StreamParser(const CompiledParser &Machine, StreamOptions Opts)
    : M(&Machine), StartNt(Opts.Start == NoNt ? Machine.Start : Opts.Start),
      User(Opts.User), Recognize(Opts.Recognize),
      EventMode(!Opts.Recognize && Opts.Events), RecoverMode(Opts.Recover),
      Budget(Opts.MaxErrors),
      TrackRetain(!Opts.Recognize && !EventMode && Machine.Actions &&
                  Machine.Actions->readsInput()) {
  assert(StartNt < M->Nts.size() && "entry nonterminal out of range");
  // The entry contract shared with the whole-buffer drivers: value and
  // event streams refuse an undeclared ValueFree entry up front (in
  // recovery mode as the one Fatal diagnostic, like the request cores).
  if (!Recognize && M->Nts[StartNt].ValueFree) {
    ParseDiagnostic D = M->entryRefusal(StartNt);
    ErrMsg = D.message();
    if (RecoverMode) {
      Errs.push_back(std::move(D));
      Truncated = true;
    }
    Ph = Phase::Fail;
    return;
  }
  Stack.push_back(M->packNt(StartNt));
}

void StreamParser::reset() {
  if (!Recognize && M->Nts[StartNt].ValueFree)
    return; // keep the constructor's deliberate Fail state
  Ph = Phase::Run;
  Buf.clear();
  WinBase = 0;
  Pos = 0;
  MidScan = false;
  Stack.clear();
  Stack.push_back(M->packNt(StartNt));
  Values.clear();
  NumVals = 0;
  Retain.clear();
  ErrMsg.clear();
  ErrOff = 0;
  Out = Value();
  EvLog.Events.clear();
  EvLog.Text.clear();
  Errs.clear();
  SegVals.clear();
  Pending = ParseDiagnostic();
  HavePending = false;
  Truncated = false;
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
// whole-buffer sinks (engine/Sink.h), so pumpT() is one templated core
// for all three modes. Each is constructed per pump from (parser,
// context); hooks receive *absolute* stream offsets.
//===----------------------------------------------------------------------===//

/// Value mode: token pushes + pooled micro-op dispatch, with the
/// streaming extra the whole-buffer ValueSink does not need — retain
/// watermark bookkeeping, routed through StreamParser::applyOp.
struct StreamParser::VSink {
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
      SP.Values.push(Value::token(static_cast<TokenId>(Tok),
                                  static_cast<uint32_t>(Begin),
                                  static_cast<uint32_t>(End)));
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
      SP.Values.push(Value::unit()); // scalar: no retain entry
      ++SP.NumVals;
    } else {
      for (ActionId A : ChainIds)
        SP.applyActionId(A, Ctx);
    }
  }
};

/// Event mode: delegates to the library EventSink over the current
/// window (base = WinBase), so the streamed event stream is emitted by
/// the *same code* as a whole-buffer parseEvents and the two cannot
/// drift. Token text is copied inside the hook into the undrained
/// batch's arena — after it returns the window bytes are droppable,
/// which is what keeps the carry at O(in-progress lexeme).
struct StreamParser::ESink {
  static constexpr bool Markers = true;
  static constexpr bool Enters = true;

  EventSink Inner;

  ESink(StreamParser &SP, ParseContext &Ctx)
      : Inner(Ctx.Input, &SP.EvLog.Events, Ctx.Base, &SP.EvLog.Text) {}

  void enter(NtId N) { Inner.enter(N); }
  void marker(uint32_t Idx) { Inner.marker(Idx); }
  void token(uint64_t Meta, uint64_t Begin, uint64_t End) {
    Inner.token(Meta, Begin, End);
  }
  void eps(NtId N, int32_t Chain) { Inner.eps(N, Chain); }
};

/// Recognize mode: the whole-buffer RecognizeSink itself, given the
/// streaming ctor shape — one set of no-op hooks to keep in lockstep
/// with the contract.
struct StreamParser::RSink : RecognizeSink {
  RSink(StreamParser &, ParseContext &) {}
};

void StreamParser::compact() {
  uint64_t KeepAbs;
  if (Ph == Phase::Resync) {
    // Mid-resynchronization the only live position is the scan cursor
    // (the segment's values were collected or dropped at the failure,
    // so no retain watermark reaches further back).
    KeepAbs = WinBase + RePos;
  } else {
    KeepAbs = WinBase + (MidScan ? Sc.Base : Pos);
    if (!Retain.empty())
      KeepAbs = std::min(KeepAbs, Retain.back().RunMin);
  }
  // Diagnostics need line/column for offsets whose prefix may be
  // compacted away: absorb the bytes once, before they go.
  if (RecoverMode && KeepAbs > LT.ScannedTo)
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
    if (MidScan) {
      Sc.Base -= Cut;
      Sc.BestEnd -= Cut;
      Sc.I -= Cut;
    }
  }
  // Sampled after the cut: what remains is exactly the carry crossing
  // into the next chunk (carryBytes()), not the just-fed chunk.
  if (Buf.size() > CarryHW)
    CarryHW = Buf.size();
}

StreamStatus StreamParser::failParse(NtId N) {
  const uint64_t Off = WinBase + Pos;
  if (RecoverMode)
    return recoverAt(N, /*Trailing=*/false, Off);
  // Byte-identical diagnostics to the whole-buffer loop, rendered by
  // the one shared formatter (engine/Diagnostic.h), with absolute
  // stream offsets.
  ErrMsg = formatParseErrorAt(Off, M->NtExpected[N], M->NtNames[N]);
  releaseAfterError(Off);
  return StreamStatus::Error;
}

StreamStatus StreamParser::failTrailing() {
  const uint64_t Off = WinBase + Pos;
  if (RecoverMode)
    return recoverAt(NoNt, /*Trailing=*/true, Off);
  ErrMsg = formatTrailingAt(Off);
  releaseAfterError(Off);
  return StreamStatus::Error;
}

StreamStatus StreamParser::recoverAt(NtId N, bool Trailing, uint64_t Off) {
  // Close the segment first — the whole-buffer loop's endSegment
  // policy: a Trailing failure means a value *completed* before the
  // leftover input, so it ships; a parse failure drops the partial.
  // (Event mode keeps the failed segment's partial events in EvLog —
  // they were delivered at match time, same as a whole-buffer events
  // request's outcome.)
  if (!Recognize && !EventMode) {
    if (Trailing)
      SegVals.push_back(Values.collect());
    else
      Values.clear();
  }
  NumVals = 0;
  Retain.clear();
  MidScan = false;

  FailSite F;
  if (Trailing)
    F.failTrailing(Off);
  else
    F.failParse(N, Off);
  ParseDiagnostic D = failureOf(*M, F);
  // Lazily absorb the window bytes up to the failure (compact() already
  // absorbed everything before the window).
  LT.locate(Buf.data(), WinBase, D);

  const CompiledParser::SyncSpec &SS = M->SyncSpecs[StartNt];
  if (Budget.charge(D, SS.HasSync, Truncated)) {
    // The error budget is spent, or the grammar has no sync tokens. The
    // stream then fails like a strict parse — ErrMsg is exactly the
    // string a budget of one produces — but Errs, SegVals and EvLog
    // survive the release: they are consumer output.
    ErrMsg = D.message();
    Errs.push_back(std::move(D));
    releaseAfterError(Off);
    return StreamStatus::Error;
  }
  Pending = std::move(D);
  HavePending = true;
  RePos = static_cast<size_t>(Off - WinBase);
  Stack.clear();
  Ph = Phase::Resync;
  return StreamStatus::NeedData; // drivePump() resumes the resync scan
}

bool StreamParser::stepResync(bool Final) {
  assert(HavePending && "resync phase without a pending diagnostic");
  const char *S = Buf.data();
  const size_t Len = Buf.size();
  const CompiledParser::SyncSpec &SS = M->SyncSpecs[StartNt];
  size_t P = RePos;
  for (;;) {
    // First sync byte at or after P (the whole-buffer findResume rule,
    // restartable at a chunk boundary: the decision at a sync byte J
    // depends only on the byte at J+1).
    const size_t J = skipRun(SS.NotSync, S, P, Len);
    if (J + 1 >= Len) {
      // No sync byte in the window, or the sync byte is the last byte
      // seen so far — either way undecidable until more input arrives
      // (the byte *after* the sync byte determines viability). Park the
      // cursor on the first unresolved position; compact() keeps the
      // window from there.
      RePos = J;
      if (!Final)
        return false;
      // End of stream: no viable re-entry point — same resolution as
      // the whole-buffer driver (a sync byte as the very last byte
      // yields SkipToEnd, not a phantom empty segment).
      Pending.Act = ParseDiagnostic::Action::SkipToEnd;
      Pending.ResumeOff = WinBase + Len;
      Errs.push_back(std::move(Pending));
      HavePending = false;
      Pos = Len;
      Out = Value::unit();
      Ph = Phase::Done;
      return true;
    }
    if (SS.admissible(S, J, SyncShadow, ShadowLen) &&
        M->entryLive(StartNt, static_cast<unsigned char>(S[J + 1]))) {
      // Viable: re-enter the machine at the recovery nonterminal just
      // past the sync byte.
      Pending.Act = ParseDiagnostic::Action::Resync;
      Pending.ResumeOff = WinBase + J + 1;
      Errs.push_back(std::move(Pending));
      HavePending = false;
      Pos = J + 1;
      Stack.push_back(M->packNt(StartNt));
      Ph = Phase::Run;
      return true;
    }
    P = J + 1;
  }
}

void StreamParser::releaseAfterError(uint64_t ErrOffset) {
  // The post-error contract (Stream.h reset() doc): the diagnostic, its
  // position, and any *undrained events* are all an errored stream
  // keeps. The carry bytes, live values, retain watermarks, suspended
  // scan, symbol stack and any unconsumed result are released *now* —
  // an errored parser sitting in a connection pool holds no stale input
  // or pool nodes while it waits for take()/reset(). Before this,
  // take()-after-error left them all live until the next reset().
  // EvLog deliberately survives: events are consumer *output*, already
  // "sent" — dropping them would make the delivered stream depend on
  // when the consumer last drained (the split-invariance tests compare
  // the error-prefix streams verbatim); a consumer that drains between
  // feeds holds them all anyway.
  Ph = Phase::Fail;
  ErrOff = ErrOffset;
  Stack.clear();
  Values.clear();
  NumVals = 0;
  Retain.clear();
  MidScan = false;
  WinBase += Buf.size(); // streamedBytes() == WinBase + Buf.size() holds
  Buf.clear();
  Pos = 0;
  Out = Value();
}

StreamStatus StreamParser::complete() {
  if (RecoverMode) {
    // The final segment ran to a clean end-of-stream: ship its value
    // like every earlier completed segment; take() yields unit.
    if (!Recognize && !EventMode)
      SegVals.push_back(Values.collect());
    Out = Value::unit();
  } else {
    Out = (Recognize || EventMode) ? Value::unit() : Values.collect();
  }
  NumVals = 0;
  Retain.clear();
  Ph = Phase::Done;
  return StreamStatus::Done;
}

/// The residual loop with suspension points — the streaming counterpart
/// of driveImpl in Compile.cpp, the same templated core shape
/// parameterized by the sink policy (VSink/ESink/RSink above), with the
/// same direct continuation into a matched tail's first symbol. A
/// suspension (More) re-pushes the in-flight work item and parks the
/// scan registers in Sc; the next pump pops it back and resumes the scan
/// where the window ended. Enter events fire on the *fresh* entry only —
/// a resumed scan is the same attempt, so a chunk boundary never
/// duplicates an event (the SinkDiffTest split sweeps pin this).
template <typename Tab, typename SinkT, bool Final>
StreamStatus StreamParser::pumpT() {
  const char *S = Buf.data();
  const size_t Len = Buf.size();
  const typename Tab::Cell *T = Tab::table(*M);
  const SkipSet *Skip = M->Skip.data();
  const scankernel::Tiers Tr = scankernel::tiersOf(*M);
  const uint64_t *Meta =
      SinkT::Markers ? M->AccMeta.data() : M->AccNtMeta.data();
  const uint32_t *SymPool =
      SinkT::Markers ? M->PackedPool.data() : M->NtPool.data();
  ParseContext Ctx{std::string_view(S, Len), User, WinBase, Pool};
  SinkT Sk(*this, Ctx);

  if (Ph == Phase::Run) {
    bool Resume = MidScan;
    // The scan registers live in a pump-local state; the member Sc is
    // only written on suspension (and read on resume), keeping the
    // per-lexeme path as store-free as the whole-buffer loop's.
    scankernel::ScanState LSc;
    while (Resume || !Stack.empty()) {
      uint32_t E = Stack.back();
      Stack.pop_back();
      for (;;) {
        ScanOutcome O;
        if (Resume) {
          // Re-enter the suspended scan with the grown window. Resume
          // takes the general kernel, which subsumes the first-byte
          // dispatch classification byte by byte; fresh scans below go
          // through the dispatch.
          Resume = false;
          MidScan = false;
          LSc = Sc;
          O = scankernel::scanStep<Tab, Final>(T, Skip, Tr, LSc, S, Len);
        } else {
          if constexpr (SinkT::Markers) {
            if (E & CompiledParser::ActBit) {
              Sk.marker(E & ~CompiledParser::ActBit);
              break;
            }
          }
          if constexpr (SinkT::Enters)
            Sk.enter(CompiledParser::packedNt(E));
          // Fresh lexeme: first-byte dispatch entry. An empty window
          // suspends on the dispatch byte (More with the entry
          // registers parked in LSc).
          O = scankernel::scanEnter<Tab, Final>(T, Skip, Tr, E & 0xffffu,
                                                Pos, S, Len, LSc);
        }
        if (O == ScanOutcome::Match) {
          const uint64_t Mt = Meta[LSc.Bs]; // one fused metadata load
          Sk.token(Mt, WinBase + LSc.Base, WinBase + LSc.BestEnd);
          Pos = LSc.BestEnd;
          const uint32_t TL = CompiledParser::metaLen(Mt);
          if (TL != 0) {
            const uint32_t TO = CompiledParser::metaOff(Mt);
            for (uint32_t J = TL; J-- > 1;)
              Stack.push_back(SymPool[TO + J]);
            E = SymPool[TO]; // direct continuation into the first tail symbol
            continue;
          }
          break;
        }
        if (O == ScanOutcome::More) {
          Stack.push_back(E); // resume pops it back
          Sc = LSc;
          MidScan = true;
          return StreamStatus::NeedData;
        }
        // Fail: the scan absorbed any committed F2 whitespace into Base.
        Pos = LSc.Base;
        NtId N = CompiledParser::packedNt(E);
        int32_t EpsChain = M->Nts[N].EpsChain;
        if (EpsChain < 0)
          return failParse(N);
        Sk.eps(N, EpsChain);
        break;
      }
    }
    Ph = Phase::Trail;
  }

  // Phase::Trail — absorb trailing skip input, then end the stream.
  assert(Ph == Phase::Trail && "pump entered in a terminal phase");
  for (;;) {
    ScanOutcome O;
    if (!MidScan) {
      if (M->SkipState < 0 || Pos == Len) {
        if (Pos < Len)
          return failTrailing();
        if (!Final)
          return StreamStatus::NeedData;
        return complete();
      }
      O = scankernel::scanEnter<Tab, Final>(
          T, Skip, Tr, static_cast<uint32_t>(M->SkipState), Pos, S, Len,
          Sc);
    } else {
      O = scankernel::scanStep<Tab, Final>(T, Skip, Tr, Sc, S, Len);
    }
    if (O == ScanOutcome::More) {
      MidScan = true;
      return StreamStatus::NeedData;
    }
    MidScan = false;
    if (O == ScanOutcome::Match && Sc.BestEnd > Pos) {
      Pos = Sc.BestEnd;
      continue; // rescan: more trailing skip may follow
    }
    // No further skip match is possible at Pos.
    if (Pos < Len)
      return failTrailing();
    if (!Final)
      return StreamStatus::NeedData;
    return complete();
  }
}

template <bool Final> StreamStatus StreamParser::pump() {
  if (M->Trans8.empty()) {
    if (Recognize)
      return pumpT<Tab16, RSink, Final>();
    if (EventMode)
      return pumpT<Tab16, ESink, Final>();
    return pumpT<Tab16, VSink, Final>();
  }
  if (Recognize)
    return pumpT<Tab8, RSink, Final>();
  if (EventMode)
    return pumpT<Tab8, ESink, Final>();
  return pumpT<Tab8, VSink, Final>();
}

template <bool Final> StreamStatus StreamParser::drivePump() {
  // Without recovery this is one pump. With it, a failure inside pump()
  // parks the stream in Phase::Resync; when the sync point is already
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
    ErrMsg = "feed() after finish()";
    releaseAfterError(WinBase + Pos);
    return StreamStatus::Error;
  }
  // Token spans (and Lexeme offsets generally) are uint32: one stream is
  // limited to 4 GiB, like a whole-buffer parse. Fail gracefully instead
  // of letting absolute offsets wrap (the same guard discipline as the
  // packed-symbol widths in compileFused).
  if (WinBase + Buf.size() + Chunk.size() > uint64_t(UINT32_MAX)) {
    ErrMsg = "stream exceeds the 32-bit offset space (4 GiB)";
    releaseAfterError(WinBase + Buf.size());
    return StreamStatus::Error;
  }
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
    Buf.clear();
    Buf.shrink_to_fit();
  }
  return St;
}

Result<Value> StreamParser::take() {
  switch (Ph) {
  case Phase::Done: {
    // Leave Out a genuine unit value: a second take() then returns
    // unit instead of a moved-from shell whose tag still claims a
    // boxed payload.
    Value V = std::move(Out);
    Out = Value();
    return V;
  }
  case Phase::Fail:
    return Err(ErrMsg);
  default:
    return Err("stream parse not finished (call finish())");
  }
}
