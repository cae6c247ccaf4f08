//===- tests/ShardDiffTest.cpp - Sharded vs sequential record runs -------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Differential suite for the data-parallel shard layer (engine/
/// Shard.h). The stitched outcome of every request — values, events
/// and recognize modes, error budgets 1 (strict) and up — must be
/// byte-identical to the sequential record run — the single-shard
/// (Splits = {}) parse of the same corpus — under:
///
///   - every admissible candidate split byte of a small corpus,
///     one at a time (the whole speculation space);
///   - forced WRONG boundaries: a split at every byte position of a
///     small corpus, admissible or not, including positions inside
///     records and inside string literals — verification must discard
///     the speculative run and repair by re-parsing;
///   - planned multi-shard runs (2..5 shards, worker threads);
///   - corrupted corpora in recovery mode, where diagnostics (offsets,
///     line/column, actions) and the Truncated flag must also match,
///     including with a tiny global MaxErrors budget that trips across
///     shard boundaries.
///
/// All six benchmark grammars run through compileFlapRecords; the
/// context-accumulating ones (csv/pgn/ppm) shard with a null context —
/// a mutable shared context is not thread-safe by contract
/// (ShardOptions::MakeCtx).
///
//===----------------------------------------------------------------------===//

#include "engine/Pipeline.h"
#include "engine/Shard.h"
#include "grammars/Grammars.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace flap;

namespace {

std::shared_ptr<GrammarDef> grammarByName(const std::string &Name) {
  if (Name == "json")
    return makeJsonGrammar();
  if (Name == "sexp")
    return makeSexpGrammar();
  if (Name == "csv")
    return makeCsvGrammar();
  if (Name == "pgn")
    return makePgnGrammar();
  if (Name == "ppm")
    return makePpmGrammar();
  return makeArithGrammar();
}

/// A small multi-record corpus per grammar, with enough internal
/// structure that naive splits land inside strings, comments and
/// nested forms.
std::string recordCorpus(const std::string &Name, size_t Records) {
  std::string S;
  for (size_t I = 0; I < Records; ++I) {
    const std::string N = std::to_string(I);
    if (Name == "json")
      S += "{\"k" + N + "\": [" + N + ", {\"s\": \"a}b]c\"}], \"t\": true}\n";
    else if (Name == "sexp")
      S += "(rec" + N + " (a b) ((c) d))\n";
    else if (Name == "csv")
      S += "f" + N + ",\"x,y\r\nz\"," + N + "\r\n";
    else if (Name == "pgn")
      S += "[Tag \"v" + N + "\"]\n1. e4 e5 2. Nf3 Nc6 1-0\n";
    else if (Name == "ppm")
      S += "P3 2 1 255  1 2 3  9 8 7\n";
    else // arith
      S += "(1+2)*" + N + " + 3;\n";
  }
  return S;
}

struct ShardRig {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;
  NtId R = NoNt;
  bool Compiled = false;

  explicit ShardRig(std::shared_ptr<GrammarDef> D) : Def(std::move(D)) {
    auto Res = compileFlapRecords(Def);
    if (!Res.ok()) {
      ADD_FAILURE() << Def->Name << ": compile failed: " << Res.error();
      return;
    }
    P = Res.take();
    R = recordEntry(P);
    if (R == NoNt) {
      ADD_FAILURE() << Def->Name << ": no record entry";
      return;
    }
    Compiled = true;
  }
};

/// One sharded request at explicit boundaries.
ShardOutcome at(ShardParser &SP, ParseMode Mode, size_t MaxErrors,
                std::string_view In, const std::vector<size_t> &Splits) {
  ParseRequest Req;
  Req.Mode = Mode;
  Req.MaxErrors = MaxErrors;
  return SP.run(Req, In, &Splits);
}

/// The whole outcome must match: values, events, diagnostics (offsets,
/// line/column, actions), Truncated, record count and the error string.
void expectSame(const std::string &Tag, const ShardOutcome &Seq,
                const ShardOutcome &Got) {
  ASSERT_EQ(Seq.Ok, Got.Ok) << Tag;
  EXPECT_EQ(Got.Ok, Got.Errors.empty()) << Tag;
  if (!Got.Ok)
    EXPECT_EQ(Got.ErrMsg, Got.Errors[0].message()) << Tag;
  EXPECT_EQ(Seq.ErrMsg, Got.ErrMsg) << Tag;
  EXPECT_EQ(Seq.NumRecords, Got.NumRecords) << Tag;
  EXPECT_EQ(Seq.Truncated, Got.Truncated) << Tag;
  ASSERT_EQ(Seq.Values.size(), Got.Values.size()) << Tag;
  for (size_t I = 0; I < Seq.Values.size(); ++I)
    ASSERT_EQ(Seq.Values[I].str(), Got.Values[I].str())
        << Tag << " value " << I;
  ASSERT_EQ(Seq.Events.size(), Got.Events.size()) << Tag;
  for (size_t I = 0; I < Seq.Events.size(); ++I)
    ASSERT_EQ(Seq.Events[I], Got.Events[I]) << Tag << " event " << I;
  ASSERT_EQ(Seq.Errors.size(), Got.Errors.size()) << Tag;
  for (size_t I = 0; I < Seq.Errors.size(); ++I)
    ASSERT_EQ(Seq.Errors[I], Got.Errors[I])
        << Tag << " diagnostic " << I << ": seq='"
        << Seq.Errors[I].message() << "' got='" << Got.Errors[I].message()
        << "'";
}

constexpr ParseMode AllModes[] = {ParseMode::Values, ParseMode::Events,
                                  ParseMode::Recognize};

/// Corrupts \p S deterministically at a few spread-out positions.
std::string corrupt(std::string S, int Salt) {
  const char Junk[] = {'#', '@', '~', '^'};
  for (int I = 0; I < 3 && !S.empty(); ++I) {
    const size_t At = (S.size() * (I + 1)) / 4 + static_cast<size_t>(Salt);
    S[At % S.size()] = Junk[(I + Salt) % 4];
  }
  return S;
}

class ShardDiffTest : public ::testing::TestWithParam<const char *> {};

/// Every admissible candidate boundary, one split at a time, every
/// mode identical to the sequential record run.
TEST_P(ShardDiffTest, EveryCandidateSplit) {
  ShardRig Rig(grammarByName(GetParam()));
  if (!Rig.Compiled)
    return;
  const std::string Corpus = recordCorpus(GetParam(), 6);
  ShardOptions O;
  O.Threads = 1; // the stitcher is what's under test here
  ShardParser SP(Rig.P.M, Rig.R, O);

  const std::vector<size_t> Cands = SP.candidateSplits(Corpus);
  if (Rig.P.M.SyncSpecs[Rig.R].HasSync)
    ASSERT_FALSE(Cands.empty()) << GetParam();
  for (ParseMode Mode : AllModes) {
    const ShardOutcome Seq = at(SP, Mode, 1, Corpus, {});
    ASSERT_TRUE(Seq.Ok) << Seq.ErrMsg;
    for (size_t C : Cands)
      expectSame(std::string(GetParam()) + " mode " +
                     std::to_string(static_cast<int>(Mode)) + " split@" +
                     std::to_string(C),
                 Seq, at(SP, Mode, 1, Corpus, {C}));
  }
}

/// A forced boundary at EVERY byte position — nearly all are wrong
/// (inside a record, inside a string, mid-lexeme). Verification must
/// repair each one bit-exactly, in every mode, strict (budget 1) and
/// recovering (budget 100), on clean and corrupted corpora.
TEST_P(ShardDiffTest, ForcedWrongSplitEveryByte) {
  ShardRig Rig(grammarByName(GetParam()));
  if (!Rig.Compiled)
    return;
  ShardOptions O;
  O.Threads = 1;
  ShardParser SP(Rig.P.M, Rig.R, O);
  const std::string Clean = recordCorpus(GetParam(), 3);
  for (const std::string &Corpus : {Clean, corrupt(Clean, 2)})
    for (ParseMode Mode : AllModes)
      for (size_t Budget : {size_t(1), DefaultMaxErrors}) {
        const std::string Tag = std::string(GetParam()) + " mode " +
                                std::to_string(static_cast<int>(Mode)) +
                                " budget " + std::to_string(Budget);
        const ShardOutcome Seq = at(SP, Mode, Budget, Corpus, {});
        if (Corpus == Clean)
          ASSERT_TRUE(Seq.Ok) << Tag << ": " << Seq.ErrMsg;
        for (size_t B = 1; B < Corpus.size(); ++B)
          expectSame(Tag + " forced@" + std::to_string(B), Seq,
                     at(SP, Mode, Budget, Corpus, {B}));
        // And a deliberately pathological pair straddling one record.
        expectSame(Tag + " straddle", Seq,
                   at(SP, Mode, Budget, Corpus,
                      {Corpus.size() / 3, Corpus.size() / 3 + 1}));
      }
}

/// Planned multi-shard runs on worker threads match the sequential
/// parse; stats stay sane.
TEST_P(ShardDiffTest, PlannedShardsOnThreads) {
  ShardRig Rig(grammarByName(GetParam()));
  if (!Rig.Compiled)
    return;
  const std::string Corpus = recordCorpus(GetParam(), 200);
  ShardOptions O;
  O.Threads = 4;
  O.MinShardBytes = 1; // force full fan-out on the small corpus
  ShardParser SP(Rig.P.M, Rig.R, O);

  const ShardOutcome SeqV = SP.parseValuesAt(Corpus, {});
  ASSERT_TRUE(SeqV.Ok) << SeqV.ErrMsg;
  for (size_t K = 2; K <= 5; ++K) {
    const std::vector<size_t> Splits = SP.planSplits(Corpus, K);
    expectSame(std::string(GetParam()) + " planned k=" + std::to_string(K),
               SeqV, SP.parseValuesAt(Corpus, Splits));
  }
  const ShardOutcome Auto = SP.parseValues(Corpus);
  expectSame(std::string(GetParam()) + " auto", SeqV, Auto);
  EXPECT_GE(Auto.Stats.Shards, static_cast<size_t>(1));
  const ShardOutcome Rec = SP.recognize(Corpus);
  EXPECT_TRUE(Rec.Ok);
  EXPECT_EQ(Rec.NumRecords, SeqV.NumRecords);
}

/// Recovery: corrupted corpora, sharded at every candidate and at
/// forced wrong positions, must reproduce the sequential values AND
/// diagnostics (offsets, line/column, resync actions, Truncated).
TEST_P(ShardDiffTest, RecoveryDifferential) {
  ShardRig Rig(grammarByName(GetParam()));
  if (!Rig.Compiled)
    return;
  for (int Salt = 0; Salt < 3; ++Salt) {
    const std::string Corpus = corrupt(recordCorpus(GetParam(), 6), Salt);
    ShardOptions O;
    O.Threads = 1;
    ShardParser SP(Rig.P.M, Rig.R, O);
    const std::string Tag =
        std::string(GetParam()) + " salt=" + std::to_string(Salt);
    const ShardOutcome Seq =
        at(SP, ParseMode::Values, DefaultMaxErrors, Corpus, {});
    for (size_t C : SP.candidateSplits(Corpus))
      expectSame(Tag + " recover@" + std::to_string(C), Seq,
                 at(SP, ParseMode::Values, DefaultMaxErrors, Corpus, {C}));
    for (size_t B = 1; B < Corpus.size(); B += 7)
      expectSame(Tag + " recover-forced@" + std::to_string(B), Seq,
                 at(SP, ParseMode::Values, DefaultMaxErrors, Corpus, {B}));
  }
}

/// The GLOBAL error budget trips at the same diagnostic whether errors
/// accumulate in one shard or across several, in every mode.
TEST_P(ShardDiffTest, RecoveryGlobalErrorBudget) {
  ShardRig Rig(grammarByName(GetParam()));
  if (!Rig.Compiled)
    return;
  std::string Corpus = recordCorpus(GetParam(), 8);
  for (int Salt = 0; Salt < 4; ++Salt)
    Corpus = corrupt(std::move(Corpus), Salt);
  ShardOptions O;
  O.Threads = 2;
  ShardParser SP(Rig.P.M, Rig.R, O);
  for (ParseMode Mode : AllModes)
    for (size_t MaxErrors : {size_t(1), size_t(2), size_t(3)}) {
      const ShardOutcome Seq = at(SP, Mode, MaxErrors, Corpus, {});
      for (size_t K = 2; K <= 4; ++K)
        expectSame(std::string(GetParam()) + " mode " +
                       std::to_string(static_cast<int>(Mode)) + " budget=" +
                       std::to_string(MaxErrors) + " k=" + std::to_string(K),
                   Seq,
                   at(SP, Mode, MaxErrors, Corpus, SP.planSplits(Corpus, K)));
    }
}

/// Strict mode on a corrupted corpus: the stitched failure is the
/// sequentially-first one, with the identical rendered message.
TEST_P(ShardDiffTest, StrictErrorIdentical) {
  ShardRig Rig(grammarByName(GetParam()));
  if (!Rig.Compiled)
    return;
  const std::string Corpus = corrupt(recordCorpus(GetParam(), 6), 1);
  ShardOptions O;
  O.Threads = 2;
  ShardParser SP(Rig.P.M, Rig.R, O);
  const ShardOutcome Seq = SP.parseValuesAt(Corpus, {});
  for (size_t K = 2; K <= 4; ++K)
    expectSame(std::string(GetParam()) + " strict-err k=" +
                   std::to_string(K),
               Seq, SP.parseValuesAt(Corpus, SP.planSplits(Corpus, K)));
}

INSTANTIATE_TEST_SUITE_P(AllGrammars, ShardDiffTest,
                         ::testing::Values("json", "sexp", "csv", "pgn",
                                           "ppm", "arith"));

/// Degenerate shapes the planner must survive.
TEST(ShardEdgeTest, EmptyAndSkipOnlyInput) {
  ShardRig Rig(makeJsonGrammar());
  ASSERT_TRUE(Rig.Compiled);
  ShardOptions O;
  O.Threads = 2;
  ShardParser SP(Rig.P.M, Rig.R, O);
  const ShardOutcome Empty = SP.parseValues("");
  EXPECT_TRUE(Empty.Ok);
  EXPECT_EQ(Empty.NumRecords, 0u);
  const ShardOutcome Skip = SP.parseValues("   \n\t  ");
  EXPECT_TRUE(Skip.Ok);
  EXPECT_EQ(Skip.NumRecords, 0u);
  // Forced splits inside the skip run verify trivially (First == Len).
  const ShardOutcome S2 = SP.parseValuesAt("   \n\t  ", {3});
  EXPECT_TRUE(S2.Ok);
  EXPECT_EQ(S2.NumRecords, 0u);
}

TEST(ShardEdgeTest, SplitsBeyondInputAreDropped) {
  ShardRig Rig(makeJsonGrammar());
  ASSERT_TRUE(Rig.Compiled);
  ShardOptions O;
  O.Threads = 1;
  ShardParser SP(Rig.P.M, Rig.R, O);
  const std::string Corpus = recordCorpus("json", 3);
  const ShardOutcome Seq = SP.parseValuesAt(Corpus, {});
  // Out-of-range, duplicate and non-increasing boundaries sanitize away.
  const ShardOutcome V = SP.parseValuesAt(
      Corpus, {Corpus.size() + 5, 10, 10, 7, Corpus.size()});
  expectSame("sanitized", Seq, V);
}

/// A nullable record entry stops every mode and budget at one Fatal
/// EmptyRecord diagnostic, however the corpus is split.
TEST(ShardEdgeTest, NullableRecordEntryIsOneDiagnosticInEveryMode) {
  auto Def = std::make_shared<GrammarDef>("nullrec");
  Lang &L = *Def->L;
  TokenId Num = Def->Lexer->rule("[0-9]+", "num");
  TokenId Semi = Def->Lexer->rule(";", "semi");
  Def->Lexer->skip(" ");
  const Px Item = L.keepLeft(L.mapTokenInt(L.tok(Num)), L.tok(Semi));
  Def->Root = L.star(Item);
  auto P = compileFlapMulti(
      Def, {{"main", Def->Root}, {"rec", L.alt(L.eps(Value::integer(0)), Item)}});
  ASSERT_TRUE(P.ok()) << P.error();
  const NtId Rec = P->Entries.at("rec");
  ShardOptions O;
  O.Threads = 2;
  ShardParser SP(P->M, Rec, O);
  const std::string In = "1; 2; x 3;";
  for (ParseMode Mode : AllModes)
    for (size_t Budget : {size_t(1), DefaultMaxErrors}) {
      const std::string Tag = "mode " +
                              std::to_string(static_cast<int>(Mode)) +
                              " budget " + std::to_string(Budget);
      const ShardOutcome Seq = at(SP, Mode, Budget, In, {});
      ASSERT_EQ(Seq.Errors.size(), 1u) << Tag;
      EXPECT_EQ(Seq.Errors[0].K, ParseDiagnostic::Kind::EmptyRecord) << Tag;
      EXPECT_EQ(Seq.Errors[0].Off, 6u) << Tag;
      EXPECT_EQ(Seq.ErrMsg, Seq.Errors[0].message()) << Tag;
      EXPECT_EQ(Seq.NumRecords, 2u) << Tag;
      for (size_t B = 1; B < In.size(); ++B)
        expectSame(Tag + " forced@" + std::to_string(B), Seq,
                   at(SP, Mode, Budget, In, {B}));
    }
}

} // namespace
