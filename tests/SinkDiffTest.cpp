//===- tests/SinkDiffTest.cpp - Sink-policy differential tests ----------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The Sink policy seam (engine/Sink.h) must be observationally
/// invisible: the EventSink stream, replayed into a value builder, must
/// equal the ValueSink output — values and error strings — on every
/// grammar, whole-buffer and at every chunk split of the streaming
/// driver; the streamed event stream must be byte-identical (spans and
/// token text included) to the whole-buffer one; and event-mode
/// streaming must retain no input beyond the in-progress lexeme, even on
/// the document-spanning bracket corpora (sexp, ppm) whose value-mode
/// retention is legitimately document-sized. The lifetime contract of
/// the flat ParseEvent is pinned too: whole-buffer text views the
/// caller's input, streamed text lives in the drained batch and
/// survives later feeds, reset() and the parser. The batch core must
/// agree with one-shot parseFrom input for input.
///
//===----------------------------------------------------------------------===//

#include "engine/FusedInterp.h"
#include "engine/Pipeline.h"
#include "engine/Shard.h"
#include "engine/Sink.h"
#include "engine/Stream.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>
#include <type_traits>

using namespace flap;

// The layout the event drivers rely on: appending an event is a 32-byte
// store, and a vector of them copies and frees as raw memory.
static_assert(std::is_trivially_copyable_v<ParseEvent>);
static_assert(std::is_trivially_destructible_v<ParseEvent>);
static_assert(sizeof(ParseEvent) <= 32);

namespace {

/// One request through the whole-buffer core, into a fresh outcome.
ParseOutcome request(const CompiledParser &M, std::string_view In,
                     ParseScratch &Scratch, ParseMode Mode,
                     size_t MaxErrors = 1, NtId Entry = NoNt,
                     void *User = nullptr) {
  ParseRequest Req;
  Req.Entry = Entry;
  Req.Mode = Mode;
  Req.MaxErrors = MaxErrors;
  Req.User = User;
  ParseOutcome O;
  M.run(Req, In, Scratch, O);
  return O;
}

/// An outcome as the strict wrappers report it.
Result<Value> strictOf(const ParseOutcome &O) {
  if (!O.Errors.empty())
    return Err(O.Errors[0].message());
  return O.Values.at(0);
}

/// Replays an EventSink stream into a value builder: token events push
/// token values, Reduce events run the named pool occurrence, Eps events
/// run the nonterminal's pre-fused ε-program — the SAX consumer contract
/// from engine/README.md. \p Input backs input-reading actions (the
/// events themselves carry the text; the replay checks it against the
/// spans).
Value replayEvents(const CompiledParser &M,
                   const std::vector<ParseEvent> &Evs,
                   std::string_view Input, void *User) {
  ParseScratch Scr;
  ParseContext Ctx{Input, User, 0, Scr.Pool};
  ValueStack &Vals = Scr.Values;
  for (const ParseEvent &E : Evs) {
    switch (E.Kind) {
    case EventKind::Enter:
      break; // structural only
    case EventKind::Token:
      // Lexeme-text contract: the text is the span's bytes.
      EXPECT_EQ(E.text(), Input.substr(static_cast<size_t>(E.Begin),
                                       static_cast<size_t>(E.End - E.Begin)));
      Vals.push(Value::token(E.Tok, static_cast<uint32_t>(E.Begin),
                             static_cast<uint32_t>(E.End)));
      break;
    case EventKind::Reduce:
      Vals.applyPooled(M.OpPool[E.Op], *M.Actions, Ctx);
      break;
    case EventKind::Eps:
      runEpsProgram(M, M.Nts[E.Nt].EpsChain, Vals, Ctx);
      break;
    }
  }
  return Vals.collect();
}

struct SinkRig {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;

  explicit SinkRig(std::shared_ptr<GrammarDef> D) : Def(std::move(D)) {
    auto R = compileFlap(Def);
    if (!R.ok()) {
      ADD_FAILURE() << "compile failed: " << R.error();
      return;
    }
    P = R.take();
  }

  void *fresh(std::shared_ptr<void> &C) {
    if (Def->NewCtx)
      C = Def->NewCtx();
    return C.get();
  }

  /// Whole-buffer: ValueSink vs EventSink+replay — same verdict, same
  /// value, same error string.
  void checkWholeBuffer(std::string_view In) {
    std::shared_ptr<void> C1, C2;
    Result<Value> Val = P.parse(In, fresh(C1));
    std::vector<ParseEvent> Evs;
    ParseScratch Scratch;
    Status Ev = P.M.parseEvents(P.M.Start, In, Scratch, Evs);
    ASSERT_EQ(Val.ok(), Ev.ok()) << Def->Name << " on '" << In << "'";
    if (!Val.ok()) {
      EXPECT_EQ(Val.error(), Ev.error()) << Def->Name;
      return;
    }
    Value Re = replayEvents(P.M, Evs, In, fresh(C2));
    EXPECT_EQ(*Val, Re) << Def->Name << " replay drift on '" << In << "'";
  }

  /// Streams \p In in event mode, cut at \p Cuts, draining events after
  /// every feed (the bounded-consumer pattern) into \p Batches.
  StreamStatus streamEvents(std::string_view In,
                            const std::vector<size_t> &Cuts,
                            std::vector<EventBatch> &Batches,
                            std::string &Err, size_t *CarryHW = nullptr) {
    StreamOptions O;
    O.Events = true;
    StreamParser SP(P.M, O);
    size_t Prev = 0;
    for (size_t Cut : Cuts) {
      SP.feed(In.substr(Prev, Cut - Prev));
      Batches.push_back(SP.takeEvents());
      Prev = Cut;
    }
    SP.feed(In.substr(Prev));
    SP.finish();
    Batches.push_back(SP.takeEvents());
    if (CarryHW)
      *CarryHW = SP.carryHighWater();
    if (SP.status() == StreamStatus::Error)
      Err = SP.take().error();
    return SP.status();
  }

  /// Streamed-at-Cuts event stream == whole-buffer event stream,
  /// event for event (kind, ids, spans, token text), same error
  /// strings; replay agrees with ValueSink.
  void checkEventSplits(std::string_view In,
                        const std::vector<size_t> &Cuts) {
    std::vector<ParseEvent> Whole;
    ParseScratch Scratch;
    Status WS = P.M.parseEvents(P.M.Start, In, Scratch, Whole);
    std::vector<EventBatch> Batches;
    std::string StrErr;
    StreamStatus SS = streamEvents(In, Cuts, Batches, StrErr);
    std::vector<ParseEvent> Str; // views text the batches own
    for (const EventBatch &B : Batches)
      Str.insert(Str.end(), B.begin(), B.end());
    ASSERT_EQ(WS.ok(), SS == StreamStatus::Done)
        << Def->Name << " (" << Cuts.size() << " cuts) on '" << In << "'";
    ASSERT_EQ(Whole.size(), Str.size())
        << Def->Name << " event count drift (" << Cuts.size() << " cuts)";
    for (size_t I = 0; I < Whole.size(); ++I)
      ASSERT_EQ(Whole[I], Str[I])
          << Def->Name << " event " << I << " drift";
    if (!WS.ok()) {
      EXPECT_EQ(WS.error(), StrErr) << Def->Name;
      return;
    }
    std::shared_ptr<void> C1, C2;
    Result<Value> Val = P.parse(In, fresh(C1));
    ASSERT_TRUE(Val.ok()) << Def->Name << ": " << Val.error();
    EXPECT_EQ(*Val, replayEvents(P.M, Str, In, fresh(C2))) << Def->Name;
  }
};

TEST(SinkDiffTest, EventReplayMatchesValueSinkAllGrammars) {
  for (auto &Def : allBenchmarkGrammars()) {
    SinkRig R(Def);
    Workload W = genWorkload(Def->Name, 5, 2000);
    R.checkWholeBuffer(W.Input);
    // Truncations land inside every construct; errors must match too.
    for (size_t Cut = 0; Cut < W.Input.size(); Cut += 7)
      R.checkWholeBuffer(std::string_view(W.Input).substr(0, Cut));
  }
}

TEST(SinkDiffTest, EventReplayMatchesValueSinkOnCorruptedInputs) {
  Rng Rand(31);
  for (auto &Def : allBenchmarkGrammars()) {
    SinkRig R(Def);
    Workload W = genWorkload(Def->Name, 9, 400);
    for (int Round = 0; Round < 16; ++Round) {
      std::string In = W.Input;
      size_t At = Rand.below(In.size());
      switch (Rand.below(3)) {
      case 0:
        In[At] = static_cast<char>(1 + Rand.below(127));
        break;
      case 1:
        In.erase(At, 1 + Rand.below(3));
        break;
      default:
        In.insert(At, 1, "(){}[]\"!,;"[Rand.below(10)]);
        break;
      }
      R.checkWholeBuffer(In);
    }
  }
}

TEST(SinkDiffTest, StreamedEventsIdenticalAtEveryTwoWaySplit) {
  for (auto &Def : allBenchmarkGrammars()) {
    SinkRig R(Def);
    Workload W = genWorkload(Def->Name, 11, 300);
    for (size_t Cut = 0; Cut <= W.Input.size(); ++Cut)
      R.checkEventSplits(W.Input, {Cut});
    // Every-byte chunks: each lexeme enters through a suspension.
    std::vector<size_t> Every;
    for (size_t Cut = 1; Cut < W.Input.size(); ++Cut)
      Every.push_back(Cut);
    R.checkEventSplits(W.Input, Every);
  }
}

TEST(SinkDiffTest, StreamedEventsRandomMultiWaySplits) {
  Rng Rand(2027);
  for (auto &Def : allBenchmarkGrammars()) {
    SinkRig R(Def);
    Workload W = genWorkload(Def->Name, 13, 5000);
    for (int Round = 0; Round < 6; ++Round) {
      std::vector<size_t> Cuts;
      size_t At = 0;
      while (At < W.Input.size()) {
        At += 1 + Rand.below(Rand.chance(1, 3) ? 8 : 512);
        if (At < W.Input.size())
          Cuts.push_back(At);
      }
      R.checkEventSplits(W.Input, Cuts);
    }
  }
}

TEST(SinkDiffTest, StreamedEventErrorsIdenticalAtSplits) {
  Rng Rand(17);
  for (auto &Def : allBenchmarkGrammars()) {
    SinkRig R(Def);
    Workload W = genWorkload(Def->Name, 19, 300);
    for (int Round = 0; Round < 8; ++Round) {
      std::string In = W.Input;
      In[Rand.below(In.size())] = static_cast<char>(1 + Rand.below(127));
      for (size_t Cut = 0; Cut <= In.size(); Cut += 5)
        R.checkEventSplits(In, {Cut});
    }
  }
}

/// The carry bound of the sink refactor: in event mode the parser keeps
/// no input beyond the in-progress lexeme (token or skip run), so the
/// carry high-water on a *document-spanning bracket structure* — whose
/// value-mode retention is legitimately document-sized — is the longest
/// lexeme, not the document.
TEST(SinkDiffTest, EventModeCarryIsLexemeBoundedOnBracketCorpora) {
  for (const char *Name : {"sexp", "ppm"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    SinkRig R(Def);
    Workload W = genWorkload(Name, 3, 256 * 1024);

    // The bound: the longest lexeme or inter-lexeme skip run.
    CompiledLexer Lex(*Def->Re, R.P.Canon);
    auto Toks = Lex.lexAll(W.Input);
    ASSERT_TRUE(Toks.ok()) << Name << ": " << Toks.error();
    size_t MaxLex = 0, Prev = 0;
    for (const Lexeme &L : *Toks) {
      MaxLex = std::max(MaxLex, static_cast<size_t>(L.End - L.Begin));
      MaxLex = std::max(MaxLex, static_cast<size_t>(L.Begin) - Prev);
      Prev = L.End;
    }
    MaxLex = std::max(MaxLex, W.Input.size() - Prev);

    std::vector<size_t> Cuts;
    for (size_t At = 4096; At < W.Input.size(); At += 4096)
      Cuts.push_back(At);

    std::vector<EventBatch> Evs;
    std::string Err;
    size_t EventCarry = 0;
    ASSERT_EQ(R.streamEvents(W.Input, Cuts, Evs, Err, &EventCarry),
              StreamStatus::Done)
        << Name << ": " << Err;
    EXPECT_LE(EventCarry, MaxLex + 8)
        << Name << " event-mode carry exceeds the in-progress lexeme "
        << "(max lexeme/skip run " << MaxLex << ")";

    // Contrast on ppm (whose actions read input, so value mode retains
    // back to the header tokens the root action consumes at the end):
    // the refactor turns document-sized retention into lexeme-sized.
    if (std::string(Name) == "ppm") {
      std::shared_ptr<void> C;
      StreamOptions VO;
      VO.User = R.fresh(C);
      StreamParser VP(R.P.M, VO);
      size_t Prev2 = 0;
      for (size_t Cut : Cuts) {
        VP.feed(std::string_view(W.Input).substr(Prev2, Cut - Prev2));
        Prev2 = Cut;
      }
      VP.feed(std::string_view(W.Input).substr(Prev2));
      ASSERT_EQ(VP.finish(), StreamStatus::Done);
      EXPECT_GT(VP.carryHighWater(), W.Input.size() / 2)
          << "ppm value-mode carry unexpectedly small: the contrast this "
             "test documents has changed";
      EXPECT_LT(EventCarry * 16, VP.carryHighWater())
          << "event mode should beat value-mode retention by orders of "
             "magnitude on ppm";
    }
  }
}

TEST(SinkDiffTest, ParseBatchMatchesOneShot) {
  for (const char *Name : {"json", "csv", "sexp"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    SinkRig R(Def);

    // A server-shaped batch: many small independent documents, a few
    // corrupted ones mixed in.
    std::vector<std::string> Docs;
    for (uint64_t I = 0; I < 64; ++I) {
      Workload W = genWorkload(Name, 100 + I, 200 + 13 * I);
      if (I % 9 == 4 && !W.Input.empty())
        W.Input[W.Input.size() / 2] = '!';
      Docs.push_back(std::move(W.Input));
    }
    std::vector<std::string_view> Views(Docs.begin(), Docs.end());

    ParseScratch Scratch;
    std::vector<Result<Value>> Batch =
        R.P.M.parseBatch(R.P.M.Start, Views, Scratch);
    ASSERT_EQ(Batch.size(), Views.size());
    for (size_t I = 0; I < Views.size(); ++I) {
      Result<Value> One = R.P.M.parseFrom(R.P.M.Start, Views[I]);
      ASSERT_EQ(One.ok(), Batch[I].ok()) << Name << " doc " << I;
      if (One.ok())
        EXPECT_EQ(*One, *Batch[I]) << Name << " doc " << I;
      else
        EXPECT_EQ(One.error(), Batch[I].error()) << Name << " doc " << I;
    }
  }
}

TEST(SinkDiffTest, ParseBatchPerInputContexts) {
  // The batch core's per-input Users: each batch input gets its own action
  // context, so the ctx-accumulating grammars (csv/pgn/ppm) can be
  // batch-served without cross-document contamination. Each document's
  // value AND its context tallies must match a one-shot parse with a
  // fresh context.
  SinkRig R(makePgnGrammar());
  std::vector<std::string> Docs;
  for (uint64_t I = 0; I < 24; ++I)
    Docs.push_back(genWorkload("pgn", 300 + I, 200 + 17 * I).Input);
  std::vector<std::string_view> Views(Docs.begin(), Docs.end());

  std::vector<std::shared_ptr<void>> Ctxs(Views.size());
  std::vector<void *> Users(Views.size());
  for (size_t I = 0; I < Views.size(); ++I) {
    Ctxs[I] = R.Def->NewCtx();
    Users[I] = Ctxs[I].get();
  }

  ParseScratch Scratch;
  std::vector<ParseOutcome> Batch;
  R.P.M.runBatch(ParseRequest(), Views.data(), Views.size(), Scratch, Batch,
                 Users.data());
  ASSERT_EQ(Batch.size(), Views.size());
  for (size_t I = 0; I < Views.size(); ++I) {
    std::shared_ptr<void> OneCtx = R.Def->NewCtx();
    Result<Value> One = R.P.parse(Views[I], OneCtx.get());
    Result<Value> Got = strictOf(Batch[I]);
    ASSERT_EQ(One.ok(), Got.ok()) << "doc " << I;
    if (One.ok())
      EXPECT_EQ(*One, *Got) << "doc " << I;
    const PgnCtx &B = *static_cast<PgnCtx *>(Users[I]);
    const PgnCtx &O = *static_cast<PgnCtx *>(OneCtx.get());
    EXPECT_EQ(B.White, O.White) << "doc " << I;
    EXPECT_EQ(B.Black, O.Black) << "doc " << I;
    EXPECT_EQ(B.Draw, O.Draw) << "doc " << I;
    EXPECT_EQ(B.Unknown, O.Unknown) << "doc " << I;
  }
}

TEST(SinkDiffTest, ParseBatchResultsOutliveTheBatch) {
  // Pool-backed values from earlier batch inputs must stay valid while
  // later inputs reuse the same scratch, and after the scratch dies.
  SinkRig R(makeJsonGrammar());
  std::vector<std::string> Docs;
  for (uint64_t I = 0; I < 16; ++I)
    Docs.push_back(genWorkload("json", 200 + I, 400).Input);
  std::vector<std::string_view> Views(Docs.begin(), Docs.end());

  std::vector<Result<Value>> Batch;
  {
    ParseScratch Scratch;
    Batch = R.P.M.parseBatch(R.P.M.Start, Views, Scratch);
  } // scratch (and its pool handle) gone; values pin the pages
  for (size_t I = 0; I < Views.size(); ++I) {
    Result<Value> One = R.P.M.parseFrom(R.P.M.Start, Views[I]);
    ASSERT_TRUE(One.ok() && Batch[I].ok()) << I;
    EXPECT_EQ(*One, *Batch[I]) << I;
  }
}

TEST(SinkDiffTest, RecoveryDiagnosticsIdenticalAcrossSinkPolicies) {
  // The recovery loop runs once per sink policy — values (ValueSink),
  // events (EventSink), recognize (RecognizeSink) requests — but must
  // report byte-identical structured diagnostics:
  // same offsets, line/column, expected sets, resync actions, same
  // truncation flag. And the first diagnostic's message() must equal
  // the legacy error string of the non-recovery parse — the
  // single-formatter seam of engine/Diagnostic.h that replaced the
  // three printf copies.
  Rng Rand(47);
  for (auto &Def : allBenchmarkGrammars()) {
    SinkRig R(Def);
    Workload W = genWorkload(Def->Name, 21, 350);
    ParseScratch Scratch;
    for (int Round = 0; Round < 12; ++Round) {
      std::string In = W.Input;
      size_t At = Rand.below(In.size());
      switch (Rand.below(3)) {
      case 0:
        In[At] = static_cast<char>(1 + Rand.below(127));
        break;
      case 1:
        In.erase(At, 1 + Rand.below(3));
        break;
      default:
        In.insert(At, 1, "(){}[]\"!,;"[Rand.below(10)]);
        break;
      }
      std::shared_ptr<void> C1, C2;
      RecoveredParse V = request(R.P.M, In, Scratch, ParseMode::Values,
                                 DefaultMaxErrors, NoNt, R.fresh(C1));
      RecoveredParse E = request(R.P.M, In, Scratch, ParseMode::Events,
                                 DefaultMaxErrors);
      RecoveredParse N = request(R.P.M, In, Scratch, ParseMode::Recognize,
                                 DefaultMaxErrors);
      ASSERT_EQ(V.Errors.size(), E.Errors.size())
          << Def->Name << " round " << Round;
      ASSERT_EQ(V.Errors.size(), N.Errors.size())
          << Def->Name << " round " << Round;
      for (size_t I = 0; I < V.Errors.size(); ++I) {
        ASSERT_EQ(V.Errors[I], E.Errors[I])
            << Def->Name << " value-vs-event diagnostic " << I;
        ASSERT_EQ(V.Errors[I], N.Errors[I])
            << Def->Name << " value-vs-recognize diagnostic " << I;
      }
      EXPECT_EQ(V.Truncated, E.Truncated) << Def->Name;
      EXPECT_EQ(V.Truncated, N.Truncated) << Def->Name;

      Result<Value> Plain = R.P.parse(In, R.fresh(C2));
      ASSERT_EQ(Plain.ok(), V.Errors.empty())
          << Def->Name << " round " << Round;
      if (!Plain.ok())
        EXPECT_EQ(Plain.error(), V.Errors[0].message())
            << Def->Name << " legacy formatter drift";
    }
  }
}

TEST(SinkDiffTest, ValueFreeSetsAndRecordEntries) {
  // Dead-token elision erases the values of these pure token
  // nonterminals (closing brackets and the like); the benchmark
  // machines' hot tables depend on exactly this set. Declared entries
  // are never erased, so no record entry is ValueFree.
  const std::map<std::string, int> Want = {{"json", 3}, {"sexp", 1},
                                           {"arith", 1}, {"pgn", 3},
                                           {"ppm", 0}, {"csv", 0}};
  for (auto &Def : allBenchmarkGrammars()) {
    Result<FlapParser> P = compileFlap(Def);
    ASSERT_TRUE(P.ok()) << P.error();
    int Free = 0;
    for (NtId N = 0; N < static_cast<NtId>(P->M.Nts.size()); ++N)
      Free += P->M.Nts[N].ValueFree;
    EXPECT_EQ(Free, Want.at(Def->Name)) << Def->Name;
    EXPECT_FALSE(P->M.Nts[P->M.Start].ValueFree) << Def->Name;
    if (!Def->HasRecord)
      continue;
    Result<FlapParser> RP = compileFlapRecords(Def);
    ASSERT_TRUE(RP.ok()) << RP.error();
    for (const auto &[Name, N] : RP->Entries)
      EXPECT_FALSE(RP->M.Nts[N].ValueFree) << Def->Name << " " << Name;
  }
}

TEST(SinkDiffTest, UndeclaredValueFreeEntryIsRefusedInEveryMode) {
  // The entry contract (engine/README.md "Entry points"): a ValueFree
  // nonterminal used as an entry is refused by every value and event
  // mode with the one shared diagnostic, and accepted by every
  // recognize mode.
  SinkRig R(makeJsonGrammar());
  const CompiledParser &M = R.P.M;
  NtId N = NoNt;
  for (NtId I = 0; I < static_cast<NtId>(M.Nts.size()) && N == NoNt; ++I)
    if (M.Nts[I].ValueFree)
      N = I;
  ASSERT_NE(N, NoNt);
  // The entry's one token, as input it accepts.
  const std::map<std::string, std::string> Lit = {
      {"rbrack", "]"}, {"rbrace", "}"}, {"colon", ":"}, {"comma", ","}};
  ASSERT_TRUE(Lit.count(M.NtExpected[N])) << M.NtExpected[N];
  const std::string In = Lit.at(M.NtExpected[N]) + " ";

  const ParseDiagnostic Refusal = M.entryRefusal(N);
  EXPECT_EQ(Refusal.K, ParseDiagnostic::Kind::Entry);
  EXPECT_EQ(Refusal.Act, ParseDiagnostic::Action::Fatal);
  EXPECT_EQ(Refusal.Nt, N);
  const std::string Msg = Refusal.message();
  EXPECT_NE(Msg.find(M.NtNames[N]), std::string::npos) << Msg;

  Result<Value> V = M.parseFrom(N, In);
  ASSERT_FALSE(V.ok());
  EXPECT_EQ(V.error(), Msg) << "parseFrom";

  ParseScratch Scratch;
  const std::vector<std::string_view> Inputs = {In, In};
  for (const Result<Value> &B : M.parseBatch(N, Inputs, Scratch)) {
    ASSERT_FALSE(B.ok());
    EXPECT_EQ(B.error(), Msg) << "parseBatch";
  }

  std::vector<ParseEvent> Evs;
  Status E1 = M.parseEvents(N, In, Scratch, Evs);
  ASSERT_FALSE(E1.ok());
  EXPECT_EQ(E1.error(), Msg) << "parseEvents";
  EXPECT_TRUE(Evs.empty());

  // Every value and event request — any budget, whole-buffer, batch or
  // record run — reports the one Fatal refusal and Truncated.
  const std::vector<ParseDiagnostic> Fatal = {Refusal};
  for (ParseMode Mode : {ParseMode::Values, ParseMode::Events})
    for (size_t Budget : {size_t(1), DefaultMaxErrors}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(Mode)) +
                   " budget " + std::to_string(Budget));
      ParseRequest Req;
      Req.Entry = N;
      Req.Mode = Mode;
      Req.MaxErrors = Budget;
      ParseOutcome O;
      EXPECT_FALSE(M.run(Req, In, Scratch, O));
      std::vector<ParseOutcome> B;
      M.runBatch(Req, Inputs.data(), Inputs.size(), Scratch, B);
      ParseOutcome RO;
      RecordRun RR = M.runRecords(Req, In, 0, In.size(), Scratch, RO);
      EXPECT_EQ(RR.S, RecordRun::Stop::Error);
      for (const ParseOutcome *Got : {&O, &B[0], &B[1], &RO}) {
        EXPECT_EQ(Got->Errors, Fatal);
        EXPECT_TRUE(Got->Truncated);
        EXPECT_TRUE(Got->Values.empty());
        EXPECT_TRUE(Got->Events.empty());
      }
    }
  RecordRun RRE = M.parseEventsRecords(N, In, 0, In.size(), Scratch, Evs);
  EXPECT_EQ(RRE.S, RecordRun::Stop::Error);
  EXPECT_TRUE(Evs.empty());

  for (int Mode = 0; Mode < 3; ++Mode) { // values, events, recovery
    StreamOptions O;
    O.Start = N;
    O.Events = Mode == 1;
    O.Recover = Mode == 2;
    StreamParser SP(M, O);
    EXPECT_EQ(SP.feed(In), StreamStatus::Error) << "stream mode " << Mode;
    EXPECT_EQ(SP.finish(), StreamStatus::Error);
    EXPECT_EQ(SP.take().error(), Msg) << "stream mode " << Mode;
    EXPECT_EQ(SP.errors(), Mode == 2 ? Fatal : std::vector<ParseDiagnostic>{});
    SP.reset(); // the refusal survives a reset
    EXPECT_EQ(SP.status(), StreamStatus::Error);
  }

  // Recognize modes accept the entry.
  EXPECT_TRUE(request(M, In, Scratch, ParseMode::Recognize, 1, N).clean());
  ParseRequest RecReq;
  RecReq.Entry = N;
  RecReq.Mode = ParseMode::Recognize;
  ParseOutcome RecOut;
  RecordRun Rec = M.runRecords(RecReq, In, 0, In.size(), Scratch, RecOut);
  EXPECT_TRUE(RecOut.clean());
  EXPECT_EQ(Rec.S, RecordRun::Stop::End);
  EXPECT_EQ(Rec.NumRecords, 1u);
  StreamOptions O;
  O.Start = N;
  O.Recognize = true;
  StreamParser SP(M, O);
  SP.feed(In);
  EXPECT_EQ(SP.finish(), StreamStatus::Done);
}

TEST(SinkDiffTest, DeclaredPureTokenRootKeepsItsValueInEveryMode) {
  // A closing bracket whose value every occurrence ignores is erased
  // (ValueFree) when it is only used inside the grammar. Declared as a
  // compileFlapMulti root it keeps its value, and every mode entering
  // there returns what the Fig. 9 spec returns from that entry.
  auto Def = std::make_shared<GrammarDef>("bracket");
  Lang &L = *Def->L;
  TokenId Lb = Def->Lexer->rule("\\[", "lbrack");
  TokenId Rb = Def->Lexer->rule("\\]", "rbrack");
  TokenId Num = Def->Lexer->rule("[0-9]+", "num");
  Def->Lexer->skip("[ \\n]");
  const Px Close = L.tok(Rb);
  const Px Item =
      L.keepLeft(L.keepRight(L.tok(Lb), L.mapTokenInt(L.tok(Num))), Close);
  Def->Root = L.star(Item);

  Result<FlapParser> Single = compileFlap(Def);
  ASSERT_TRUE(Single.ok()) << Single.error();
  int Free = 0;
  for (const CompiledParser::NtInfo &Nt : Single->M.Nts)
    Free += Nt.ValueFree;
  ASSERT_EQ(Free, 1) << "the undeclared bracket is erased";

  Result<FlapParser> Multi =
      compileFlapMulti(Def, {{"main", Def->Root}, {"close", Close}});
  ASSERT_TRUE(Multi.ok()) << Multi.error();
  const CompiledParser &M = Multi->M;
  const NtId C = Multi->Entries.at("close");
  EXPECT_FALSE(M.Nts[C].ValueFree);
  for (const CompiledParser::NtInfo &Nt : M.Nts)
    EXPECT_FALSE(Nt.ValueFree) << "the root is the shared bracket";
  EXPECT_EQ(M.NtExpected[C], "rbrack");

  for (const std::string In : {"]", " ] \n", "]]", "", "[1]"}) {
    SCOPED_TRACE("input '" + In + "'");
    Result<Value> Spec = parseFusedInterp(*Def->Re, Multi->F, L.Actions, In,
                                          nullptr, C, Def->Toks.get());
    auto Same = [&](const Result<Value> &Got, const char *Mode) {
      ASSERT_EQ(Got.ok(), Spec.ok()) << Mode;
      if (Spec.ok())
        EXPECT_EQ(*Got, *Spec) << Mode;
      else
        EXPECT_EQ(Got.error(), Spec.error()) << Mode;
    };
    ParseScratch Scratch;
    Same(M.parseFrom(C, In), "parseFrom");
    const std::vector<std::string_view> Inputs = {In};
    Same(M.parseBatch(C, Inputs, Scratch)[0], "parseBatch");

    std::vector<ParseEvent> Evs;
    Status Ev = M.parseEvents(C, In, Scratch, Evs);
    Same(Ev.ok() ? Result<Value>(replayEvents(M, Evs, In, nullptr))
                 : Result<Value>(Err(Ev.error())),
         "parseEvents");

    RecoveredParse RV = request(M, In, Scratch, ParseMode::Values,
                                DefaultMaxErrors, C);
    if (Spec.ok()) {
      EXPECT_TRUE(RV.clean());
      ASSERT_EQ(RV.Values.size(), 1u);
      EXPECT_EQ(RV.Values[0], *Spec) << "recovering run";
    } else {
      ASSERT_FALSE(RV.Errors.empty());
      EXPECT_EQ(RV.Errors[0].message(), Spec.error()) << "recovering run";
    }

    ParseRequest RecReq;
    RecReq.Entry = C;
    ParseOutcome Recs;
    RecordRun RR = M.runRecords(RecReq, In, 0, In.size(), Scratch, Recs);
    if (Spec.ok()) { // a record run of exactly one record
      EXPECT_EQ(RR.S, RecordRun::Stop::End);
      ASSERT_EQ(Recs.Values.size(), 1u);
      EXPECT_EQ(Recs.Values[0], *Spec) << "runRecords";
    }

    for (int Mode = 0; Mode < 2; ++Mode) { // values, events
      StreamOptions O;
      O.Start = C;
      O.Events = Mode == 1;
      StreamParser SP(M, O);
      for (char Ch : In)
        SP.feed(std::string_view(&Ch, 1));
      SP.finish();
      Result<Value> Got = SP.take();
      if (Mode == 1 && Got.ok()) {
        EventBatch B = SP.takeEvents();
        Got = replayEvents(M, std::vector<ParseEvent>(B.begin(), B.end()),
                           In, nullptr);
      }
      Same(Got, Mode ? "stream events" : "stream values");
    }
  }
}

/// Every Token event's text must view \p In at its own span — the
/// whole-buffer drivers copy nothing. Returns the Token event count
/// (zero on the grammars whose tokens dead-token elision removes).
size_t expectTextViewsInput(const std::vector<ParseEvent> &Evs,
                            std::string_view In, const std::string &Tag) {
  size_t Tokens = 0;
  for (const ParseEvent &E : Evs) {
    if (E.Kind != EventKind::Token)
      continue;
    ++Tokens;
    const std::string_view T = E.text();
    EXPECT_TRUE(T.data() >= In.data() &&
                T.data() + T.size() <= In.data() + In.size())
        << Tag << ": token text at " << E.Begin << " does not view the input";
    EXPECT_EQ(T.data(), In.data() + E.Begin) << Tag;
  }
  return Tokens;
}

TEST(SinkDiffTest, WholeBufferEventTextViewsTheInput) {
  Rng Rand(53);
  size_t Tokens = 0;
  for (auto &Def : allBenchmarkGrammars()) {
    SinkRig R(Def);
    const std::string In = genWorkload(Def->Name, 23, 3000).Input;
    ParseScratch Scratch;
    std::vector<ParseEvent> Evs;
    ASSERT_TRUE(R.P.M.parseEvents(R.P.M.Start, In, Scratch, Evs).ok());
    Tokens += expectTextViewsInput(Evs, In, Def->Name + " parseEvents");

    std::string Bad = In;
    Bad[Rand.below(Bad.size())] = '\x01';
    Tokens += expectTextViewsInput(
        request(R.P.M, Bad, Scratch, ParseMode::Events, DefaultMaxErrors)
            .Events,
        Bad, Def->Name + " recovering events");
  }
  EXPECT_GT(Tokens, 0u) << "no token events to check";

  // The record drivers and the shard stitch, over multi-record corpora
  // of two grammars whose tokens survive elision.
  for (const char *Name : {"arith", "pgn"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    auto PR = compileFlapRecords(Def);
    ASSERT_TRUE(PR.ok()) << PR.error();
    FlapParser P = PR.take();
    const NtId Rec = recordEntry(P);
    ASSERT_NE(Rec, NoNt);
    const std::string In = genWorkload(Name, 41, 12000).Input;

    ParseScratch Scratch;
    std::vector<ParseEvent> Evs;
    RecordRun RR =
        P.M.parseEventsRecords(Rec, In, 0, In.size(), Scratch, Evs);
    ASSERT_NE(RR.S, RecordRun::Stop::Error) << Name;
    EXPECT_GT(RR.NumRecords, 1u) << Name;
    EXPECT_GT(expectTextViewsInput(Evs, In,
                                   std::string(Name) + " parseEventsRecords"),
              0u);

    ShardOptions O;
    O.Threads = 2;
    O.MinShardBytes = 64;
    ShardParser SP(P.M, Rec, O);
    ParseRequest Req;
    Req.Mode = ParseMode::Events;
    ShardOutcome SE = SP.run(Req, In);
    ASSERT_TRUE(SE.Ok) << Name << ": " << SE.ErrMsg;
    EXPECT_GT(SE.Stats.Shards, 1u) << Name;
    EXPECT_EQ(SE.Events, Evs) << Name << ": shard stitch drift";
    expectTextViewsInput(SE.Events, In, std::string(Name) + " ShardParser");
  }
}

TEST(SinkDiffTest, StreamedEventTextOutlivesFeedsResetAndParser) {
  // Each chunk is fed from a scratch copy that is scribbled over right
  // after the feed, the parser is then reset and reused for another
  // document, and finally destroyed — the drained batches (moved around
  // inside a growing vector) must still hold the whole-buffer stream,
  // byte for byte. Under ASan a view into any parser-owned or chunk
  // memory is a use-after-free.
  for (auto &Def : allBenchmarkGrammars()) {
    SinkRig R(Def);
    const std::string In = genWorkload(Def->Name, 29, 1500).Input;
    const std::string Other = genWorkload(Def->Name, 31, 800).Input;
    std::vector<ParseEvent> Whole;
    ParseScratch Scratch;
    ASSERT_TRUE(R.P.M.parseEvents(R.P.M.Start, In, Scratch, Whole).ok());

    for (size_t Chunk : {size_t(1), size_t(7), size_t(64), size_t(4096)}) {
      const std::string Tag =
          Def->Name + " chunk " + std::to_string(Chunk);
      std::vector<EventBatch> Batches;
      {
        StreamOptions O;
        O.Events = true;
        StreamParser SP(R.P.M, O);
        for (size_t At = 0; At < In.size(); At += Chunk) {
          std::string Piece = In.substr(At, Chunk);
          ASSERT_NE(SP.feed(Piece), StreamStatus::Error) << Tag;
          std::fill(Piece.begin(), Piece.end(), '\0');
          const size_t Undrained = SP.events().size();
          Batches.push_back(SP.takeEvents());
          ASSERT_EQ(Batches.back().size(), Undrained) << Tag;
          ASSERT_TRUE(SP.events().empty()) << Tag;
        }
        ASSERT_EQ(SP.finish(), StreamStatus::Done) << Tag;
        Batches.push_back(SP.takeEvents());
        // Reuse the parser (and its window) for another document, left
        // undrained when the parser dies.
        SP.reset();
        SP.feed(Other);
        SP.finish();
        EXPECT_FALSE(SP.events().empty()) << Tag;
      }
      size_t K = 0;
      for (const EventBatch &B : Batches)
        for (const ParseEvent &E : B) {
          ASSERT_LT(K, Whole.size()) << Tag << ": extra events";
          ASSERT_EQ(E, Whole[K]) << Tag << " event " << K;
          ++K;
        }
      EXPECT_EQ(K, Whole.size()) << Tag;
    }
  }
}

} // namespace
