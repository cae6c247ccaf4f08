//===- tests/RecoveryDiffTest.cpp - Sync-token recovery differentials ---------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The recovery contract (engine/README.md "The recovery contract"),
/// pinned differentially on every benchmark grammar:
///
///   - A recovered suffix parses identically to a clean parse from the
///     sync point: after the last Resync, the final segment's value (and
///     event tail, modulo the offset shift) equals parseFrom on the
///     suffix — whole-buffer and at every 2-way chunk split of the
///     streaming parser.
///   - The structured error list is identical — full ParseDiagnostic
///     equality, line/column included — across the ValueSink, EventSink
///     and recognition recovery paths, the batch path, and the streaming
///     parser at every split.
///   - The first diagnostic's message() reproduces the non-recovery
///     error string verbatim (parseFrom, the Fig. 9 reference
///     interpreter and the streaming parser all render through the
///     same formatter).
///   - MaxErrors truncates identically everywhere; a grammar input with
///     no viable sync point yields SkipToEnd, not a phantom segment.
///   - One request table: every mode (values, events, recognize) at
///     budgets 1 and 100 gives the identical ParseOutcome through run(),
///     the batch core, a 2-worker ParseService and, for record entries,
///     runRecords at Limit = size; a budget of one is exactly the
///     recovering outcome cut at its first diagnostic; and every strict
///     wrapper fails with Errors[0].message().
///
/// The checked-in corrupted corpus (tests/corpus/) runs the same
/// differential under every build preset (asan/nosimd included — the
/// sync scan shares skipRun with the SIMD kernels).
///
//===----------------------------------------------------------------------===//

#include "engine/Pipeline.h"
#include "engine/Serve.h"
#include "engine/Sink.h"
#include "engine/Stream.h"
#include "grammars/Grammars.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

using namespace flap;

namespace {

/// Deterministically corrupts \p In: flips, deletes or inserts bytes at
/// roughly one site per \p Stride bytes.
std::string corrupt(std::string In, uint64_t Seed, size_t Stride) {
  Rng Rand(Seed);
  for (size_t At = Rand.below(Stride); At < In.size();
       At += 1 + Rand.below(Stride)) {
    switch (Rand.below(3)) {
    case 0:
      In[At] = static_cast<char>(1 + Rand.below(127));
      break;
    case 1:
      In.erase(At, 1 + Rand.below(3));
      break;
    default:
      In.insert(At, 1, "(){}[]\"!,;%"[Rand.below(11)]);
      break;
    }
  }
  return In;
}

/// One whole-buffer request through run(), into a fresh outcome.
ParseOutcome request(const CompiledParser &M, std::string_view In,
                     ParseScratch &Scratch,
                     ParseMode Mode = ParseMode::Values,
                     size_t MaxErrors = DefaultMaxErrors, NtId Entry = NoNt) {
  ParseRequest Req;
  Req.Entry = Entry;
  Req.Mode = Mode;
  Req.MaxErrors = MaxErrors;
  ParseOutcome O;
  M.run(Req, In, Scratch, O);
  return O;
}

struct RecoveryRig {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;

  explicit RecoveryRig(std::shared_ptr<GrammarDef> D) : Def(std::move(D)) {
    auto R = compileFlap(Def);
    if (!R.ok()) {
      ADD_FAILURE() << "compile failed: " << R.error();
      return;
    }
    P = R.take();
  }

  /// Streams \p In in recovery mode, cut at \p Cuts; returns the
  /// accumulated values/errors/truncated flag. \p Final controls
  /// whether finish() is called (always true here).
  RecoveredParse streamRecover(std::string_view In,
                               const std::vector<size_t> &Cuts) {
    StreamOptions O;
    O.Recover = true;
    StreamParser SP(P.M, O);
    size_t Prev = 0;
    for (size_t Cut : Cuts) {
      SP.feed(In.substr(Prev, Cut - Prev));
      Prev = Cut;
    }
    SP.feed(In.substr(Prev));
    SP.finish();
    RecoveredParse Out;
    Out.Values = SP.takeValues();
    Out.Errors = SP.takeErrors();
    Out.Truncated = SP.truncated();
    return Out;
  }
};

void expectSameRecovery(const RecoveredParse &A, const RecoveredParse &B,
                        const std::string &What) {
  ASSERT_EQ(A.Errors.size(), B.Errors.size()) << What;
  for (size_t I = 0; I < A.Errors.size(); ++I) {
    EXPECT_EQ(A.Errors[I], B.Errors[I])
        << What << ": diagnostic " << I << " drifted ('"
        << A.Errors[I].message() << "' vs '" << B.Errors[I].message()
        << "', line " << A.Errors[I].Line << ":" << A.Errors[I].Col
        << " vs " << B.Errors[I].Line << ":" << B.Errors[I].Col << ")";
  }
  EXPECT_EQ(A.Truncated, B.Truncated) << What;
  ASSERT_EQ(A.Values.size(), B.Values.size()) << What;
  for (size_t I = 0; I < A.Values.size(); ++I)
    EXPECT_EQ(A.Values[I], B.Values[I]) << What << ": value " << I;
}

/// The tentpole differential on one corrupted input: structural error
/// lists agree across every recovery path, the first diagnostic
/// reproduces the legacy error string, and the recovered suffix equals
/// a clean parse from the last sync point.
void checkOneInput(RecoveryRig &R, std::string_view In,
                   const std::string &What) {
  ParseScratch Scr;
  const CompiledParser &M = R.P.M;
  RecoveredParse Whole = request(M, In, Scr);

  // Sanity: diagnostics are ordered, resumptions make strict progress,
  // and only the last diagnostic may be terminal.
  for (size_t I = 0; I < Whole.Errors.size(); ++I) {
    const ParseDiagnostic &D = Whole.Errors[I];
    if (I + 1 < Whole.Errors.size()) {
      EXPECT_EQ(D.Act, ParseDiagnostic::Action::Resync) << What;
      EXPECT_GT(Whole.Errors[I + 1].Off, D.Off) << What;
      EXPECT_GE(Whole.Errors[I + 1].Off, D.ResumeOff) << What;
    }
    EXPECT_GE(D.ResumeOff, D.Off) << What;
  }

  // The non-recovery paths fail with exactly the first diagnostic's
  // message (one shared formatter).
  Result<Value> Plain = R.P.parse(In);
  if (Whole.Errors.empty()) {
    ASSERT_TRUE(Plain.ok()) << What << ": " << Plain.error();
    ASSERT_EQ(Whole.Values.size(), 1u) << What;
    EXPECT_EQ(*Plain, Whole.Values[0]) << What;
  } else {
    ASSERT_FALSE(Plain.ok()) << What;
    EXPECT_EQ(Plain.error(), Whole.Errors[0].message()) << What;
  }

  // Error-list equality across the ValueSink / EventSink / recognition
  // recovery paths (the sinks record the failure site structurally; the
  // shared recoverLoop builds identical diagnostics from it).
  {
    RecoveredParse Ev = request(M, In, Scr, ParseMode::Events);
    ASSERT_EQ(Whole.Errors.size(), Ev.Errors.size()) << What;
    for (size_t I = 0; I < Whole.Errors.size(); ++I)
      EXPECT_EQ(Whole.Errors[I], Ev.Errors[I]) << What << " (events)";
    EXPECT_EQ(Whole.Truncated, Ev.Truncated) << What;

    RecoveredParse Rec = request(M, In, Scr, ParseMode::Recognize);
    ASSERT_EQ(Whole.Errors.size(), Rec.Errors.size()) << What;
    for (size_t I = 0; I < Whole.Errors.size(); ++I)
      EXPECT_EQ(Whole.Errors[I], Rec.Errors[I]) << What << " (recognize)";
    EXPECT_EQ(Whole.Truncated, Rec.Truncated) << What;
  }

  // Recovered-suffix differential: after the last Resync the machine
  // re-entered at ResumeOff and ran to a clean end of input, so a clean
  // parse of the suffix must succeed and produce the same final segment
  // value (segment values are pure functions of segment text: every
  // benchmark grammar's actions null-guard the user context).
  if (!Whole.Errors.empty() &&
      Whole.Errors.back().Act == ParseDiagnostic::Action::Resync) {
    const size_t Q = static_cast<size_t>(Whole.Errors.back().ResumeOff);
    Result<Value> Suffix = R.P.parse(In.substr(Q));
    ASSERT_TRUE(Suffix.ok())
        << What << ": suffix from " << Q << " does not re-parse: "
        << Suffix.error();
    ASSERT_FALSE(Whole.Values.empty()) << What;
    EXPECT_EQ(*Suffix, Whole.Values.back())
        << What << ": recovered suffix value drifted (sync point " << Q
        << ")";
  }
}

TEST(RecoveryDiffTest, WholeBufferRecoveryOnAllGrammars) {
  for (auto &Def : allBenchmarkGrammars()) {
    RecoveryRig R(Def);
    Workload W = genWorkload(Def->Name, 5, 800);
    // Clean input first: recovery on a valid buffer is one segment, no
    // diagnostics.
    checkOneInput(R, W.Input, Def->Name + " clean");
    for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
      std::string Bad = corrupt(W.Input, Seed, 200);
      checkOneInput(R, Bad, Def->Name + " seed " + std::to_string(Seed));
    }
  }
}

TEST(RecoveryDiffTest, StreamingRecoveryMatchesWholeBufferAtEverySplit) {
  for (auto &Def : allBenchmarkGrammars()) {
    RecoveryRig R(Def);
    Workload W = genWorkload(Def->Name, 9, 260);
    ParseScratch Scr;
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      std::string Bad = corrupt(W.Input, Seed, 90);
      RecoveredParse Whole = request(R.P.M, Bad, Scr);
      for (size_t Cut = 0; Cut <= Bad.size(); ++Cut) {
        RecoveredParse Str = R.streamRecover(Bad, {Cut});
        expectSameRecovery(Whole, Str,
                           Def->Name + " seed " + std::to_string(Seed) +
                               " cut " + std::to_string(Cut));
      }
      // Every-byte chunks: the resynchronization scan suspends inside
      // every run it can.
      std::vector<size_t> Every;
      for (size_t Cut = 1; Cut < Bad.size(); ++Cut)
        Every.push_back(Cut);
      RecoveredParse Str = R.streamRecover(Bad, Every);
      expectSameRecovery(Whole, Str, Def->Name + " every-byte chunks");
    }
  }
}

TEST(RecoveryDiffTest, StreamingEventRecoveryMatchesWholeBuffer) {
  // Event-mode recovery: the streamed event log across recovered errors
  // equals the whole-buffer events request's stream — including the
  // failed segments' partial events, which are consumer output.
  for (auto &Def : allBenchmarkGrammars()) {
    RecoveryRig R(Def);
    Workload W = genWorkload(Def->Name, 21, 240);
    ParseScratch Scr;
    std::string Bad = corrupt(W.Input, 4, 80);
    RecoveredParse Whole = request(R.P.M, Bad, Scr, ParseMode::Events);
    const std::vector<ParseEvent> &WholeEvs = Whole.Events;
    for (size_t Cut = 0; Cut <= Bad.size(); Cut += 7) {
      StreamOptions O;
      O.Recover = true;
      O.Events = true;
      StreamParser SP(R.P.M, O);
      SP.feed(std::string_view(Bad).substr(0, Cut));
      SP.feed(std::string_view(Bad).substr(Cut));
      SP.finish();
      EventBatch Evs = SP.takeEvents();
      ASSERT_EQ(WholeEvs.size(), Evs.size())
          << Def->Name << " cut " << Cut;
      for (size_t I = 0; I < Evs.size(); ++I)
        ASSERT_EQ(WholeEvs[I], Evs[I])
            << Def->Name << " cut " << Cut << " event " << I;
      std::vector<ParseDiagnostic> Errs = SP.takeErrors();
      ASSERT_EQ(Whole.Errors.size(), Errs.size())
          << Def->Name << " cut " << Cut;
      for (size_t I = 0; I < Errs.size(); ++I)
        EXPECT_EQ(Whole.Errors[I], Errs[I])
            << Def->Name << " cut " << Cut << " diagnostic " << I;
    }
  }
}

TEST(RecoveryDiffTest, BatchRecoverMatchesPerInput) {
  // The malformed-input serving contract: a batch mixing clean and
  // corrupt documents yields, per input, exactly the one-shot recovery
  // result — a corrupt neighbour never poisons a clean document even
  // though the scratch (stack, value pool) is shared across the batch.
  for (auto &Def : allBenchmarkGrammars()) {
    RecoveryRig R(Def);
    std::vector<std::string> Docs;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      Workload W = genWorkload(Def->Name, 30 + Seed, 200);
      Docs.push_back(Seed % 2 ? corrupt(W.Input, Seed, 60) : W.Input);
    }
    std::vector<std::string_view> Views(Docs.begin(), Docs.end());
    ParseScratch Batch, Single;
    std::vector<RecoveredParse> Out =
        R.P.M.parseBatchRecover(R.P.M.Start, Views, Batch);
    ASSERT_EQ(Out.size(), Docs.size());
    for (size_t I = 0; I < Docs.size(); ++I) {
      RecoveredParse One = request(R.P.M, Views[I], Single);
      expectSameRecovery(One, Out[I],
                         Def->Name + " batch doc " + std::to_string(I));
    }
  }
}

TEST(RecoveryDiffTest, MaxErrorsTruncatesIdentically) {
  RecoveryRig R(makeJsonGrammar());
  Workload W = genWorkload("json", 3, 900);
  std::string Bad = corrupt(W.Input, 2, 40); // dense corruption
  ParseScratch Scr;
  RecoveredParse Whole = request(R.P.M, Bad, Scr, ParseMode::Values, 3);
  ASSERT_GE(Whole.Errors.size(), 1u);
  if (Whole.Truncated) {
    EXPECT_EQ(Whole.Errors.size(), 3u);
    EXPECT_EQ(Whole.Errors.back().Act, ParseDiagnostic::Action::Fatal);
  }

  // Streaming: same limit, same list; the stream then fails like a
  // non-recovery parse whose message is the fatal diagnostic's.
  StreamOptions O;
  O.Recover = true;
  O.MaxErrors = 3;
  StreamParser SP(R.P.M, O);
  for (size_t At = 0; At < Bad.size(); At += 31)
    if (SP.feed(std::string_view(Bad).substr(At, 31)) ==
        StreamStatus::Error)
      break;
  SP.finish();
  std::vector<ParseDiagnostic> Errs = SP.takeErrors();
  ASSERT_EQ(Whole.Errors.size(), Errs.size());
  for (size_t I = 0; I < Errs.size(); ++I)
    EXPECT_EQ(Whole.Errors[I], Errs[I]) << "diagnostic " << I;
  EXPECT_EQ(Whole.Truncated, SP.truncated());
  if (Whole.Truncated) {
    EXPECT_EQ(SP.status(), StreamStatus::Error);
    EXPECT_EQ(SP.take().error(), Whole.Errors.back().message());
  }
}

TEST(RecoveryDiffTest, SyncByteAsLastByteSkipsToEnd) {
  // A sync byte as the very last byte has nothing after it to re-enter
  // on: the diagnostic's action is SkipToEnd (no phantom empty
  // segment), whole-buffer and streamed.
  RecoveryRig R(makeSexpGrammar());
  // Fails at '!' (offset 3); the only sync byte after it is the final
  // ')' — with nothing after it to re-enter on.
  const std::string In = "(a !b)";
  ParseScratch Scr;
  RecoveredParse Whole = request(R.P.M, In, Scr);
  ASSERT_EQ(Whole.Errors.size(), 1u);
  EXPECT_EQ(Whole.Errors[0].Off, 3u);
  EXPECT_EQ(Whole.Errors[0].Act, ParseDiagnostic::Action::SkipToEnd);
  EXPECT_EQ(Whole.Errors[0].ResumeOff, In.size());
  EXPECT_TRUE(Whole.Values.empty());
  for (size_t Cut = 0; Cut <= In.size(); ++Cut) {
    RecoveredParse Str = R.streamRecover(In, {Cut});
    expectSameRecovery(Whole, Str, "cut " + std::to_string(Cut));
  }
}

TEST(RecoveryDiffTest, LineAndColumnMatchTextEditors) {
  // 1-based line/column against hand-counted positions, and identical
  // whole-buffer vs streamed (the streaming tracker absorbs
  // compacted-away prefixes exactly once).
  RecoveryRig R(makeSexpGrammar());
  const std::string In = "(a\n!b c)\n(d)\n";
  // '!' is at offset 3: line 2, column 1.
  ParseScratch Scr;
  RecoveredParse Whole = request(R.P.M, In, Scr);
  ASSERT_GE(Whole.Errors.size(), 1u);
  EXPECT_EQ(Whole.Errors[0].K, ParseDiagnostic::Kind::Parse);
  EXPECT_EQ(Whole.Errors[0].Off, 3u);
  EXPECT_EQ(Whole.Errors[0].Line, 2u);
  EXPECT_EQ(Whole.Errors[0].Col, 1u);
  for (size_t Cut = 0; Cut <= In.size(); ++Cut) {
    RecoveredParse Str = R.streamRecover(In, {Cut});
    expectSameRecovery(Whole, Str, "line/col cut " + std::to_string(Cut));
  }
}

TEST(RecoveryDiffTest, StreamResetClearsRecoveryState) {
  // One recovering StreamParser, many streams: diagnostics, segment
  // values, truncation and the line tracker must not leak across
  // reset() (lines restart at 1).
  RecoveryRig R(makeSexpGrammar());
  StreamOptions O;
  O.Recover = true;
  StreamParser SP(R.P.M, O);
  ParseScratch Scr;
  for (int Conn = 0; Conn < 3; ++Conn) {
    const std::string In = "(a)\n(!\n(b)\n"; // one error per stream
    RecoveredParse Whole = request(R.P.M, In, Scr);
    for (size_t At = 0; At < In.size(); At += 2)
      SP.feed(std::string_view(In).substr(At, 2));
    SP.finish();
    RecoveredParse Str;
    Str.Values = SP.takeValues();
    Str.Errors = SP.takeErrors();
    Str.Truncated = SP.truncated();
    expectSameRecovery(Whole, Str, "conn " + std::to_string(Conn));
    SP.reset();
    EXPECT_TRUE(SP.errors().empty());
    EXPECT_FALSE(SP.truncated());
  }
}

TEST(RecoveryDiffTest, CsvResyncRequiresTheFullCrlfSequence) {
  // csv's record terminator is the two-byte literal "\r\n", so its sync
  // *byte* '\n' is sequence-only (SyncSpec::SeqOnly): a bare '\n' — or a
  // '\n' preceded by anything but '\r' — can sit inside the very field
  // text being recovered from and must not anchor a resume. The
  // resynchronization scan still lands on '\n' via NotSync; admissible()
  // then demands the preceding '\r', whole-buffer and streamed (where
  // the '\r' may already have been compacted away into the shadow).
  RecoveryRig R(makeCsvGrammar());
  const CompiledParser &M = R.P.M;
  const CompiledParser::SyncSpec &SS = M.SyncSpecs[M.Start];
  ASSERT_TRUE(SS.HasSync);
  EXPECT_TRUE(SS.Sync.test('\n'));
  EXPECT_TRUE(SS.SeqOnly.test('\n'));
  ASSERT_EQ(SS.Seqs.size(), 1u);
  EXPECT_EQ(SS.Seqs[0], "\r\n");

  // One corrupt record whose replacement text contains a bare '\n' (at
  // 13, preceded by 'x') and a bare '\r' (at 15): recovery must skip
  // both and resume only after the genuine "\r\n" at 17-18.
  const std::string In = "good,1\r\nbad\"x\ny\rz\r\nok,2\r\n";
  ASSERT_EQ(In[13], '\n');
  ASSERT_NE(In[12], '\r');
  ASSERT_EQ(In.substr(17, 2), "\r\n");
  ParseScratch Scr;
  RecoveredParse Whole = request(M, In, Scr);
  ASSERT_GE(Whole.Errors.size(), 1u);
  EXPECT_EQ(Whole.Errors[0].Act, ParseDiagnostic::Action::Resync);
  EXPECT_EQ(Whole.Errors[0].ResumeOff, 19u)
      << "resumed at a bare newline instead of past the CRLF";
  checkOneInput(R, In, "csv crlf");

  // Streamed at every split — including the cuts between '\r' and '\n'
  // and the every-byte chunking, which force the sequence across
  // compaction boundaries.
  for (size_t Cut = 0; Cut <= In.size(); ++Cut) {
    RecoveredParse Str = R.streamRecover(In, {Cut});
    expectSameRecovery(Whole, Str, "crlf cut " + std::to_string(Cut));
  }
  std::vector<size_t> Every;
  for (size_t Cut = 1; Cut < In.size(); ++Cut)
    Every.push_back(Cut);
  expectSameRecovery(Whole, R.streamRecover(In, Every),
                     "crlf every-byte chunks");

  // No admissible sync point at all after the failure (every later
  // '\n' is bare): the scan must run to SkipToEnd, never resuming at
  // an inadmissible newline.
  const std::string Bare = "a,1\r\nbad\"x\ny\nz";
  RecoveredParse None = request(M, Bare, Scr);
  ASSERT_GE(None.Errors.size(), 1u);
  EXPECT_EQ(None.Errors.back().Act, ParseDiagnostic::Action::SkipToEnd);
  EXPECT_EQ(None.Errors.back().ResumeOff, Bare.size());
  for (size_t Cut = 0; Cut <= Bare.size(); ++Cut) {
    RecoveredParse Str = R.streamRecover(Bare, {Cut});
    expectSameRecovery(None, Str, "bare-lf cut " + std::to_string(Cut));
  }
}

TEST(RecoveryDiffTest, CheckedInCorpusRecoversUnderEveryPreset) {
  // The corrupted-input corpus (tests/corpus/): every file must recover
  // with at least one diagnostic, at least one delivered value, and
  // whole-buffer/streamed/batch agreement. The same test runs under the
  // asan/nosimd presets, which swap the skip kernels under the
  // resynchronization scan.
#ifndef FLAP_CORPUS_DIR
  GTEST_SKIP() << "FLAP_CORPUS_DIR not configured";
#else
  const std::pair<const char *, const char *> Files[] = {
      {"sexp", "sexp_corrupt.txt"},
      {"json", "json_corrupt.txt"},
      {"csv", "csv_corrupt.txt"},
      {"arith", "arith_corrupt.txt"},
  };
  for (auto [Name, File] : Files) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    ASSERT_TRUE(Def) << Name;
    RecoveryRig R(Def);
    std::ifstream S(std::string(FLAP_CORPUS_DIR) + "/" + File,
                    std::ios::binary);
    ASSERT_TRUE(S.good()) << "missing corpus file " << File;
    std::ostringstream Text;
    Text << S.rdbuf();
    const std::string In = Text.str();
    ASSERT_FALSE(In.empty()) << File;

    checkOneInput(R, In, std::string("corpus ") + File);
    ParseScratch Scr;
    RecoveredParse Whole = request(R.P.M, In, Scr);
    EXPECT_GE(Whole.Errors.size(), 1u)
        << File << ": corpus input unexpectedly clean";
    EXPECT_GE(Whole.Values.size(), 1u)
        << File << ": no record survived recovery";
    for (size_t Cut = 0; Cut <= In.size(); Cut += 11) {
      RecoveredParse Str = R.streamRecover(In, {Cut});
      expectSameRecovery(Whole, Str,
                         std::string(File) + " cut " + std::to_string(Cut));
    }
  }
#endif
}

//===----------------------------------------------------------------------===//
// One request table: every mode × budget through every core
//===----------------------------------------------------------------------===//

constexpr ParseMode TableModes[] = {ParseMode::Values, ParseMode::Events,
                                    ParseMode::Recognize};
constexpr size_t TableBudgets[] = {1, DefaultMaxErrors};

std::string modeName(ParseMode Mode) {
  return Mode == ParseMode::Values   ? "values"
         : Mode == ParseMode::Events ? "events"
                                     : "recognize";
}

void expectSameOutcome(const ParseOutcome &A, const ParseOutcome &B,
                       const std::string &What) {
  expectSameRecovery(A, B, What);
  ASSERT_EQ(A.Events.size(), B.Events.size()) << What;
  for (size_t I = 0; I < A.Events.size(); ++I)
    ASSERT_EQ(A.Events[I], B.Events[I]) << What << ": event " << I;
}

/// Strict is a budget of one: the strict outcome is the recovering one
/// cut at its first diagnostic, which turns Fatal and truncates.
void expectStrictPrefix(const ParseOutcome &Strict, const ParseOutcome &Rec,
                        const std::string &What) {
  if (Rec.Errors.empty()) {
    expectSameOutcome(Strict, Rec, What);
    return;
  }
  ASSERT_EQ(Strict.Errors.size(), 1u) << What;
  ParseDiagnostic First = Rec.Errors[0];
  First.Act = ParseDiagnostic::Action::Fatal;
  First.ResumeOff = First.Off;
  EXPECT_EQ(Strict.Errors[0], First) << What;
  EXPECT_TRUE(Strict.Truncated) << What;
  ASSERT_LE(Strict.Values.size(), Rec.Values.size()) << What;
  for (size_t I = 0; I < Strict.Values.size(); ++I)
    EXPECT_EQ(Strict.Values[I], Rec.Values[I]) << What << ": value " << I;
  ASSERT_LE(Strict.Events.size(), Rec.Events.size()) << What;
  for (size_t I = 0; I < Strict.Events.size(); ++I)
    ASSERT_EQ(Strict.Events[I], Rec.Events[I]) << What << ": event " << I;
}

/// Outcomes of one table row: [budget index][mode][input].
using Table = std::map<size_t, std::map<ParseMode, std::vector<ParseOutcome>>>;

/// The modes must agree on everything they share: diagnostics and
/// truncation always, record counts in value mode.
void expectModesAgree(const Table &T, size_t NumInputs,
                      const std::string &What) {
  for (size_t B = 0; B < 2; ++B)
    for (size_t I = 0; I < NumInputs; ++I) {
      const ParseOutcome &V = T.at(B).at(ParseMode::Values)[I];
      for (ParseMode Mode : {ParseMode::Events, ParseMode::Recognize}) {
        const ParseOutcome &O = T.at(B).at(Mode)[I];
        const std::string Tag = What + " input " + std::to_string(I) +
                                " budget " +
                                std::to_string(TableBudgets[B]) + " " +
                                modeName(Mode);
        EXPECT_EQ(V.Errors, O.Errors) << Tag;
        EXPECT_EQ(V.Truncated, O.Truncated) << Tag;
        EXPECT_TRUE(O.Values.empty()) << Tag;
      }
      EXPECT_TRUE(T.at(B).at(ParseMode::Recognize)[I].Events.empty());
    }
  for (ParseMode Mode : TableModes)
    for (size_t I = 0; I < NumInputs; ++I)
      expectStrictPrefix(T.at(0).at(Mode)[I], T.at(1).at(Mode)[I],
                         What + " input " + std::to_string(I) + " " +
                             modeName(Mode) + " strict prefix");
}

TEST(RecoveryDiffTest, OneRequestTableAcrossWholeBufferCores) {
  size_t TrailingDrops = 0;
  for (auto &Def : allBenchmarkGrammars()) {
    RecoveryRig R(Def);
    const CompiledParser &M = R.P.M;
    const Workload W = genWorkload(Def->Name, 41, 400);
    std::vector<std::string> Docs = {W.Input, W.Input + ")",
                                     W.Input + "\n!"};
    for (uint64_t Seed = 1; Seed <= 5; ++Seed)
      Docs.push_back(corrupt(W.Input, Seed, 120));
    const std::vector<std::string_view> Views(Docs.begin(), Docs.end());

    Table T;
    for (size_t B = 0; B < 2; ++B) {
      const size_t Budget = TableBudgets[B];
      for (ParseMode Mode : TableModes) {
        ParseRequest Req;
        Req.Mode = Mode;
        Req.MaxErrors = Budget;
        ParseScratch BatchScr, Scr;
        // A reused outcome vector: stale outcomes must not leak through.
        std::vector<ParseOutcome> Batch(2 * Views.size());
        for (ParseOutcome &O : Batch) {
          O.Values.push_back(Value::integer(7));
          O.Errors.push_back(ParseDiagnostic());
          O.Truncated = true;
        }
        M.runBatch(Req, Views.data(), Views.size(), BatchScr, Batch);
        ASSERT_EQ(Batch.size(), Views.size());
        for (size_t I = 0; I < Views.size(); ++I) {
          ParseOutcome One;
          const bool Ok = M.run(Req, Views[I], Scr, One);
          EXPECT_EQ(Ok, One.Errors.empty());
          expectSameOutcome(One, Batch[I],
                            Def->Name + " batch " + modeName(Mode) +
                                " input " + std::to_string(I));
          T[B][Mode].push_back(std::move(One));
        }
      }
      // The serving front-end fills its reply from the batch core.
      ServeOptions SO;
      SO.Threads = 2;
      SO.Recover = Budget != 1;
      SO.MaxErrors = Budget;
      ParseService Svc(M, M.Start, SO);
      ServeReply Rep = Svc.submit(Views).get();
      ASSERT_TRUE(Rep.Accepted);
      ASSERT_EQ(Rep.Recovered.size(), Views.size());
      for (size_t I = 0; I < Views.size(); ++I)
        expectSameOutcome(T[B][ParseMode::Values][I], Rep.Recovered[I],
                          Def->Name + " serve input " + std::to_string(I));
    }
    expectModesAgree(T, Views.size(), Def->Name);

    // The strict wrappers read the budget-1 outcome: they fail with
    // exactly Errors[0].message() and drop a completed value on a
    // trailing-input failure.
    ParseScratch Scr;
    const std::vector<Result<Value>> Batch =
        M.parseBatch(M.Start, Views, Scr);
    const std::vector<ParseOutcome> BatchRec =
        M.parseBatchRecover(M.Start, Views, Scr);
    for (size_t I = 0; I < Views.size(); ++I) {
      const std::string Tag = Def->Name + " input " + std::to_string(I);
      const ParseOutcome &SV = T[0][ParseMode::Values][I];
      std::vector<Result<Value>> Got = {M.parse(Views[I], Scr),
                                        M.parseFrom(M.Start, Views[I]),
                                        Batch[I]};
      for (const Result<Value> &V : Got) {
        ASSERT_EQ(V.ok(), SV.Errors.empty()) << Tag;
        if (V.ok())
          EXPECT_EQ(*V, SV.Values.at(0)) << Tag;
        else
          EXPECT_EQ(V.error(), SV.Errors[0].message()) << Tag;
      }
      if (!SV.Errors.empty() &&
          SV.Errors[0].K == ParseDiagnostic::Kind::Trailing) {
        EXPECT_EQ(SV.Values.size(), 1u) << Tag;
        ++TrailingDrops;
      }
      EXPECT_EQ(M.recognize(Views[I], Scr),
                T[0][ParseMode::Recognize][I].Errors.empty())
          << Tag;
      std::vector<ParseEvent> Evs(1); // appended to, not replaced
      const ParseEvent Keep = Evs[0];
      Status St = M.parseEvents(M.Start, Views[I], Scr, Evs);
      const ParseOutcome &SE = T[0][ParseMode::Events][I];
      ASSERT_EQ(St.ok(), SE.Errors.empty()) << Tag;
      if (!St.ok())
        EXPECT_EQ(St.error(), SE.Errors[0].message()) << Tag;
      ASSERT_EQ(Evs.size(), SE.Events.size() + 1) << Tag;
      EXPECT_EQ(Evs[0], Keep) << Tag;
      EXPECT_TRUE(std::equal(SE.Events.begin(), SE.Events.end(),
                             Evs.begin() + 1))
          << Tag;
      expectSameOutcome(T[1][ParseMode::Values][I], BatchRec[I],
                        Tag + " parseBatchRecover");
    }
  }
  EXPECT_GT(TrailingDrops, 0u) << "no trailing-input failure exercised";
}

TEST(RecoveryDiffTest, OneRequestTableAcrossRecordRuns) {
  for (auto &Def : allBenchmarkGrammars()) {
    if (!Def->HasRecord)
      continue;
    auto PR = compileFlapRecords(Def);
    ASSERT_TRUE(PR.ok()) << PR.error();
    const FlapParser P = PR.take();
    const CompiledParser &M = P.M;
    const NtId Rec = recordEntry(P);
    const Workload W = genWorkload(Def->Name, 43, 600);
    std::vector<std::string> Docs = {W.Input};
    for (uint64_t Seed = 1; Seed <= 5; ++Seed)
      Docs.push_back(corrupt(W.Input, Seed, 150));

    Table T;
    std::vector<size_t> Records(Docs.size());
    for (size_t B = 0; B < 2; ++B)
      for (ParseMode Mode : TableModes)
        for (size_t I = 0; I < Docs.size(); ++I) {
          ParseRequest Req;
          Req.Entry = Rec;
          Req.Mode = Mode;
          Req.MaxErrors = TableBudgets[B];
          ParseScratch Scr;
          ParseOutcome O;
          const std::string_view In = Docs[I];
          const RecordRun RR = M.runRecords(Req, In, 0, In.size(), Scr, O);
          const std::string Tag = Def->Name + " records input " +
                                  std::to_string(I) + " " + modeName(Mode);
          EXPECT_NE(RR.S, RecordRun::Stop::AtLimit) << Tag;
          EXPECT_EQ(RR.S == RecordRun::Stop::Error,
                    !O.Errors.empty() &&
                        O.Errors.back().Act == ParseDiagnostic::Action::Fatal)
              << Tag;
          if (Mode == ParseMode::Values)
            EXPECT_EQ(O.Values.size(), RR.NumRecords) << Tag;
          if (B == 0 && Mode == ParseMode::Events) {
            // The perfbench-pinned events wrapper is this very request.
            std::vector<ParseEvent> Evs;
            const RecordRun WR =
                M.parseEventsRecords(Rec, In, 0, In.size(), Scr, Evs);
            EXPECT_EQ(WR.S, RR.S) << Tag;
            EXPECT_EQ(WR.NumRecords, RR.NumRecords) << Tag;
            EXPECT_EQ(Evs, O.Events) << Tag;
          }
          T[B][Mode].push_back(std::move(O));
        }
    expectModesAgree(T, Docs.size(), Def->Name + " records");
    ASSERT_TRUE(T[0][ParseMode::Values][0].clean()) << Def->Name;
  }
}

/// A record entry that matches empty input cannot delimit a sequence:
/// every mode and budget reports it as one Fatal EmptyRecord diagnostic.
TEST(RecoveryDiffTest, NullableRecordEntryIsOneDiagnosticInEveryMode) {
  auto Def = std::make_shared<GrammarDef>("nullrec");
  Lang &L = *Def->L;
  TokenId Num = Def->Lexer->rule("[0-9]+", "num");
  TokenId Semi = Def->Lexer->rule(";", "semi");
  Def->Lexer->skip(" ");
  const Px Item = L.keepLeft(L.mapTokenInt(L.tok(Num)), L.tok(Semi));
  const Px RecPx = L.alt(L.eps(Value::integer(0)), Item);
  Def->Root = L.star(Item);
  auto P = compileFlapMulti(Def, {{"main", Def->Root}, {"rec", RecPx}});
  ASSERT_TRUE(P.ok()) << P.error();
  const NtId Rec = P->Entries.at("rec");
  const std::string In = "1; 2; x 3;";
  for (size_t Budget : TableBudgets)
    for (ParseMode Mode : TableModes) {
      const std::string Tag =
          modeName(Mode) + " budget " + std::to_string(Budget);
      ParseRequest Req;
      Req.Entry = Rec;
      Req.Mode = Mode;
      Req.MaxErrors = Budget;
      ParseScratch Scr;
      ParseOutcome O;
      const RecordRun RR = P->M.runRecords(Req, In, 0, In.size(), Scr, O);
      EXPECT_EQ(RR.S, RecordRun::Stop::Error) << Tag;
      EXPECT_EQ(RR.NumRecords, 2u) << Tag;
      ASSERT_EQ(O.Errors.size(), 1u) << Tag;
      const ParseDiagnostic &D = O.Errors[0];
      EXPECT_EQ(D.K, ParseDiagnostic::Kind::EmptyRecord) << Tag;
      EXPECT_EQ(D.Act, ParseDiagnostic::Action::Fatal) << Tag;
      EXPECT_EQ(D.Off, 6u) << Tag;
      EXPECT_EQ(D.Col, 7u) << Tag;
      EXPECT_EQ(D.Nt, Rec) << Tag;
      EXPECT_EQ(D.message(), formatEmptyRecord(6, P->M.NtNames[Rec])) << Tag;
      EXPECT_EQ(O.Truncated, Budget == 1) << Tag;
      EXPECT_EQ(O.Values.size(), Mode == ParseMode::Values ? 2u : 0u) << Tag;
    }
}

} // namespace
