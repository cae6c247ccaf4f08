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
///
/// The checked-in corrupted corpus (tests/corpus/) runs the same
/// differential under every build preset (asan/nosimd included — the
/// sync scan shares skipRun with the SIMD kernels).
///
//===----------------------------------------------------------------------===//

#include "engine/Pipeline.h"
#include "engine/Sink.h"
#include "engine/Stream.h"
#include "grammars/Grammars.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <fstream>
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
  RecoveredParse Whole = M.parseRecover(In, Scr);

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
  Result<Value> Plain = M.parse(In);
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
    std::vector<ParseEvent> Evs;
    RecoveredParse Ev = M.parseEventsRecover(M.Start, In, Scr, Evs);
    ASSERT_EQ(Whole.Errors.size(), Ev.Errors.size()) << What;
    for (size_t I = 0; I < Whole.Errors.size(); ++I)
      EXPECT_EQ(Whole.Errors[I], Ev.Errors[I]) << What << " (events)";
    EXPECT_EQ(Whole.Truncated, Ev.Truncated) << What;

    RecoveredParse Rec = M.recognizeRecover(M.Start, In, Scr);
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
    Result<Value> Suffix = M.parse(In.substr(Q));
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
      RecoveredParse Whole = R.P.M.parseRecover(Bad, Scr);
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
  // equals the whole-buffer parseEventsRecover stream — including the
  // failed segments' partial events, which are consumer output.
  for (auto &Def : allBenchmarkGrammars()) {
    RecoveryRig R(Def);
    Workload W = genWorkload(Def->Name, 21, 240);
    ParseScratch Scr;
    std::string Bad = corrupt(W.Input, 4, 80);
    std::vector<ParseEvent> WholeEvs;
    RecoveredParse Whole =
        R.P.M.parseEventsRecover(R.P.M.Start, Bad, Scr, WholeEvs);
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
      RecoveredParse One = R.P.M.parseRecover(Views[I], Single);
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
  RecoverOptions Opts;
  Opts.MaxErrors = 3;
  RecoveredParse Whole = R.P.M.parseRecover(Bad, Scr, nullptr, Opts);
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
  RecoveredParse Whole = R.P.M.parseRecover(In, Scr);
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
  RecoveredParse Whole = R.P.M.parseRecover(In, Scr);
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
    RecoveredParse Whole = R.P.M.parseRecover(In, Scr);
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
  RecoveredParse Whole = M.parseRecover(In, Scr);
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
  RecoveredParse None = M.parseRecover(Bare, Scr);
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
    RecoveredParse Whole = R.P.M.parseRecover(In, Scr);
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

} // namespace
