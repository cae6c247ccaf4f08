//===- tests/StreamDiffTest.cpp - Chunked streaming differential fuzzing ------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The push-style streaming parser (engine/Stream.h) must be
/// observationally identical to a whole-buffer parse of the concatenated
/// chunks, for *every* way of cutting the input: byte-identical `Value`
/// results (token spans carry absolute stream offsets), identical error
/// strings with absolute offsets, and identical accept/reject decisions
/// in recognize mode. Cuts deliberately land inside lexemes, inside
/// committed and uncommitted F2 whitespace, and inside runs consumed by
/// the 8-byte word / 16-byte SIMD skip kernels — the suspension must be
/// invisible no matter which kernel the run straddles.
///
/// The streaming lexer (lexer/CompiledLexer.h StreamLexer) gets the same
/// treatment against lexAll().
///
//===----------------------------------------------------------------------===//

#include "engine/Pipeline.h"
#include "engine/Stream.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

/// One grammar under chunked differential test.
struct StreamRig {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;

  explicit StreamRig(std::shared_ptr<GrammarDef> D) : Def(std::move(D)) {
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

  /// Streams \p In cut at the (sorted, in-range) offsets \p Cuts.
  Result<Value> streamParse(std::string_view In,
                            const std::vector<size_t> &Cuts,
                            size_t *CarryHW = nullptr) {
    std::shared_ptr<void> C;
    StreamOptions O;
    O.User = fresh(C);
    StreamParser SP(P.M, O);
    size_t Prev = 0;
    for (size_t Cut : Cuts) {
      SP.feed(In.substr(Prev, Cut - Prev));
      Prev = Cut;
    }
    SP.feed(In.substr(Prev));
    SP.finish();
    if (CarryHW)
      *CarryHW = SP.carryHighWater();
    // On success every byte was consumed (errors reject later chunks).
    if (SP.status() == StreamStatus::Done)
      EXPECT_EQ(SP.streamedBytes(), In.size());
    return SP.take();
  }

  /// Whole-buffer vs streamed-at-Cuts: same verdict, same value, same
  /// error string; recognize-mode stream agrees too.
  bool checkSplits(std::string_view In, const std::vector<size_t> &Cuts) {
    std::shared_ptr<void> C;
    Result<Value> Whole = P.parse(In, fresh(C));
    Result<Value> Str = streamParse(In, Cuts);
    EXPECT_EQ(Whole.ok(), Str.ok())
        << Def->Name << ": stream vs whole on '" << In << "' (" << Cuts.size()
        << " cuts)";
    if (Whole.ok() && Str.ok()) {
      EXPECT_EQ(*Whole, *Str) << Def->Name << " value drift on '" << In
                              << "'";
    } else if (!Whole.ok() && !Str.ok()) {
      EXPECT_EQ(Whole.error(), Str.error())
          << Def->Name << " error drift on '" << In << "'";
    }

    StreamOptions RO;
    RO.Recognize = true;
    StreamParser SR(P.M, RO);
    size_t Prev = 0;
    for (size_t Cut : Cuts) {
      SR.feed(In.substr(Prev, Cut - Prev));
      Prev = Cut;
    }
    SR.feed(In.substr(Prev));
    EXPECT_EQ(SR.finish() == StreamStatus::Done, Whole.ok())
        << Def->Name << ": streaming recognize vs parse on '" << In << "'";
    return Whole.ok();
  }

  /// Every two-way split of \p In, plus every-byte chunks.
  void sweepAllSplits(std::string_view In) {
    for (size_t Cut = 0; Cut <= In.size(); ++Cut)
      checkSplits(In, {Cut});
    std::vector<size_t> Every;
    for (size_t Cut = 1; Cut < In.size(); ++Cut)
      Every.push_back(Cut);
    checkSplits(In, Every);
  }
};

TEST(StreamDiffTest, AllGrammarsAllTwoWaySplits) {
  for (auto &Def : allBenchmarkGrammars()) {
    StreamRig R(Def);
    Workload W = genWorkload(Def->Name, 11, 400);
    R.sweepAllSplits(W.Input);
  }
}

TEST(StreamDiffTest, SplitsInsideSimdRunSkipBlocks) {
  // Atom and whitespace runs long enough that the scan is inside the
  // 16-byte SIMD classifier (and the 8-byte word kernel) when the chunk
  // ends: every cut of every run length around both block widths.
  StreamRig R(makeSexpGrammar());
  for (int Run : {7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40}) {
    std::string Atom(static_cast<size_t>(Run), 'a');
    std::string Ws(static_cast<size_t>(Run), ' ');
    for (const std::string &In :
         {"(" + Atom + " " + Atom + ")", "(" + Ws + Atom + Ws + ")",
          Atom + Ws, "(" + Atom /* reject: unclosed */}) {
      for (size_t Cut = 0; Cut <= In.size(); ++Cut)
        R.checkSplits(In, {Cut});
    }
  }
}

TEST(StreamDiffTest, SplitsOnLexemeFirstBytes) {
  // The dispatch byte is a suspension point: a chunk ending exactly
  // before a lexeme's first byte parks the scan on the dispatch load
  // itself, and one ending right after it suspends one transition in.
  // Cut every workload at every lexeme's first byte (and the byte
  // after), for every grammar.
  for (auto &Def : allBenchmarkGrammars()) {
    StreamRig R(Def);
    CompiledLexer Lex(*Def->Re, R.P.Canon);
    Workload W = genWorkload(Def->Name, 31, 500);
    Result<std::vector<Lexeme>> Toks = Lex.lexAll(W.Input);
    ASSERT_TRUE(Toks.ok()) << Def->Name << ": " << Toks.error();
    std::vector<size_t> FirstBytes;
    for (const Lexeme &L : *Toks) {
      R.checkSplits(W.Input, {L.Begin});
      if (L.Begin + 1 <= W.Input.size())
        R.checkSplits(W.Input, {L.Begin + 1});
      FirstBytes.push_back(L.Begin);
    }
    // All first bytes at once: every lexeme enters through a fresh
    // dispatch at a chunk boundary.
    R.checkSplits(W.Input, FirstBytes);
  }
}

TEST(StreamDiffTest, CommentRunsSuspendWithoutCommitting) {
  // A pure self-skip run that is *not* restartable from its interior
  // (ppm's #-comments: 'x' cannot begin a new skip lexeme): a window
  // ending mid-comment must suspend mid-run, not commit a partial
  // whitespace lexeme. Every split of comment-heavy inputs, valid and
  // corrupted.
  StreamRig R(makePpmGrammar());
  const std::string Long(40, 'c'); // straddles the 8/16-byte kernels
  for (const std::string &In :
       {std::string("P3\n#") + Long + "\n1 1\n255\n0 0 0\n",
        std::string("P3\n# a # b\n1 1\n3\n1 2 3\n"),
        std::string("P3\n1 1\n255\n0 0 #tail comment\n0\n"),
        std::string("P3\n#") + Long /* reject: truncated header */})
    R.sweepAllSplits(In);
}

TEST(StreamDiffTest, RandomMultiWaySplits) {
  Rng Rand(2026);
  for (auto &Def : allBenchmarkGrammars()) {
    StreamRig R(Def);
    for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
      Workload W = genWorkload(Def->Name, Seed, 3000 + Seed * 2000);
      for (int Round = 0; Round < 8; ++Round) {
        std::vector<size_t> Cuts;
        size_t At = 0;
        while (At < W.Input.size()) {
          // Mix of tiny (1-8B) and medium (up to 512B) chunks.
          At += 1 + Rand.below(Rand.chance(1, 3) ? 8 : 512);
          if (At < W.Input.size())
            Cuts.push_back(At);
        }
        EXPECT_TRUE(R.checkSplits(W.Input, Cuts))
            << Def->Name << " seed " << Seed;
      }
    }
  }
}

TEST(StreamDiffTest, ErrorsIdenticalAtEverySplit) {
  // Corrupted inputs must fail with byte-identical diagnostics (absolute
  // offsets, expected-token sets) no matter where the chunks end — the
  // error may even be raised by an earlier feed() call.
  Rng Rand(7);
  for (auto &Def : allBenchmarkGrammars()) {
    StreamRig R(Def);
    Workload W = genWorkload(Def->Name, 13, 300);
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
        In.insert(At, 1 + Rand.below(2), "(){}[]\"!,;"[Rand.below(10)]);
        break;
      }
      for (size_t Cut = 0; Cut <= In.size(); Cut += 3)
        R.checkSplits(In, {Cut});
    }
  }
}

TEST(StreamDiffTest, CarryStaysBoundedOnDocumentStreams) {
  // Streams of independent documents (the server scenario) must not
  // accumulate carry: the watermark releases every document's bytes as
  // its value reduces to a scalar. The bound is the longest single
  // document plus the suspended lexeme, far below the stream length.
  for (const char *Name : {"json", "csv", "pgn"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    StreamRig R(Def);
    Workload W = genWorkload(Name, 3, 64 * 1024);
    size_t CarryHW = 0;
    std::vector<size_t> Cuts;
    for (size_t At = 1024; At < W.Input.size(); At += 1024)
      Cuts.push_back(At);
    Result<Value> V = R.streamParse(W.Input, Cuts, &CarryHW);
    ASSERT_TRUE(V.ok()) << Name << ": " << V.error();
    EXPECT_LT(CarryHW, W.Input.size() / 4)
        << Name << " carry high-water grew with the stream";
  }
}

TEST(StreamDiffTest, ResetReusesTheParser) {
  StreamRig R(makeJsonGrammar());
  StreamParser SP(R.P.M);
  for (int Doc = 0; Doc < 3; ++Doc) {
    Workload W = genWorkload("json", 20 + static_cast<uint64_t>(Doc), 500);
    for (size_t At = 0; At < W.Input.size(); At += 13)
      SP.feed(std::string_view(W.Input).substr(At, 13));
    ASSERT_EQ(SP.finish(), StreamStatus::Done) << SP.take().error();
    Result<Value> Str = SP.take();
    Result<Value> Whole = R.P.parse(W.Input);
    ASSERT_TRUE(Str.ok() && Whole.ok());
    EXPECT_EQ(*Whole, *Str);
    SP.reset();
  }
}

TEST(StreamDiffTest, TakeAfterMidStreamErrorAndResetRecovers) {
  // The post-error contract (Stream.h reset() doc): a mid-stream error
  // releases the carry and live values immediately; take() returns the
  // diagnostic, repeatably; offset() reports the error position; further
  // feeds keep failing; and reset() fully recovers the parser for the
  // next stream. Before this contract, take()-after-error left the
  // carry/retain state live until reset().
  StreamRig R(makeJsonGrammar());
  Workload Good = genWorkload("json", 23, 600);
  std::string Bad = Good.Input;
  // Corrupt a structural byte (a '!' inside a string literal would
  // still parse).
  size_t At = Bad.find_first_of("{}[],", Bad.size() / 2);
  ASSERT_NE(At, std::string::npos);
  Bad[At] = '!';
  Result<Value> Whole = R.P.parse(Bad);
  ASSERT_FALSE(Whole.ok());

  StreamParser SP(R.P.M);
  for (size_t At = 0; At < Bad.size(); At += 17)
    if (SP.feed(std::string_view(Bad).substr(At, 17)) == StreamStatus::Error)
      break;
  ASSERT_EQ(SP.status(), StreamStatus::Error) << "corruption not detected";

  // Carry and values released at the error, not at reset().
  EXPECT_EQ(SP.carryBytes(), 0u);
  // take() is repeatable and byte-identical to the whole-buffer error.
  Result<Value> E1 = SP.take();
  Result<Value> E2 = SP.take();
  ASSERT_FALSE(E1.ok());
  ASSERT_FALSE(E2.ok());
  EXPECT_EQ(E1.error(), Whole.error());
  EXPECT_EQ(E2.error(), Whole.error());
  // The error position survives take(); further feeds keep failing.
  EXPECT_EQ(SP.feed("{}"), StreamStatus::Error);
  EXPECT_EQ(SP.finish(), StreamStatus::Error);

  // reset() recovers: the same parser serves the next stream, and the
  // warmed pool arena is kept.
  size_t Pages = SP.pool()->pageCount();
  SP.reset();
  EXPECT_EQ(SP.pool()->pageCount(), Pages) << "reset dropped the arena";
  for (size_t At = 0; At < Good.Input.size(); At += 13)
    SP.feed(std::string_view(Good.Input).substr(At, 13));
  ASSERT_EQ(SP.finish(), StreamStatus::Done) << SP.take().error();
  Result<Value> Str = SP.take();
  Result<Value> WholeGood = R.P.parse(Good.Input);
  ASSERT_TRUE(Str.ok() && WholeGood.ok());
  EXPECT_EQ(*WholeGood, *Str);
}

TEST(StreamDiffTest, ErrorOffsetReportedAfterRelease) {
  // offset() after an error must report the error position even though
  // the carry was released (the window bookkeeping moved past it).
  StreamRig R(makeSexpGrammar());
  const std::string In = "(abc !def)"; // '!' fails at offset 5
  Result<Value> Whole = R.P.parse(In);
  ASSERT_FALSE(Whole.ok());
  for (size_t Cut = 0; Cut <= In.size(); ++Cut) {
    StreamParser SP(R.P.M);
    SP.feed(std::string_view(In).substr(0, Cut));
    SP.feed(std::string_view(In).substr(Cut));
    SP.finish();
    ASSERT_EQ(SP.status(), StreamStatus::Error) << "cut " << Cut;
    EXPECT_EQ(SP.take().error(), Whole.error()) << "cut " << Cut;
    EXPECT_EQ(SP.offset(), 5u) << "cut " << Cut;
    // Bytes fed after the error are rejected, so streamedBytes() counts
    // what the parser accepted: everything up to (at least) the error.
    EXPECT_GE(SP.streamedBytes(), 6u) << "cut " << Cut;
    EXPECT_LE(SP.streamedBytes(), In.size()) << "cut " << Cut;
    EXPECT_EQ(SP.carryBytes(), 0u) << "cut " << Cut;
  }
}

TEST(StreamDiffTest, ResetServesManyConnectionsAcrossModes) {
  // One StreamParser, many streams — value mode and event mode, valid
  // and erroring, back to back; reset() must leave no residue (stale
  // events, stale errors, stale carry) between them.
  StreamRig R(makeJsonGrammar());
  StreamOptions O;
  O.Events = true;
  StreamParser SP(R.P.M, O);
  for (int Conn = 0; Conn < 4; ++Conn) {
    Workload W = genWorkload("json", 40 + static_cast<uint64_t>(Conn), 400);
    std::string In = W.Input;
    const bool Corrupt = Conn % 2 == 1;
    if (Corrupt) {
      size_t At = In.find_first_of("{}[],", In.size() / 3);
      ASSERT_NE(At, std::string::npos);
      In[At] = '!';
    }
    for (size_t At = 0; At < In.size(); At += 11)
      if (SP.feed(std::string_view(In).substr(At, 11)) ==
          StreamStatus::Error)
        break;
    SP.finish();
    EventBatch Evs = SP.takeEvents();
    std::vector<ParseEvent> WholeEvs;
    ParseScratch Scr;
    Status WS = R.P.M.parseEvents(R.P.M.Start, In, Scr, WholeEvs);
    ASSERT_EQ(WS.ok(), SP.status() == StreamStatus::Done) << Conn;
    ASSERT_EQ(WholeEvs.size(), Evs.size()) << Conn;
    for (size_t I = 0; I < Evs.size(); ++I)
      ASSERT_EQ(WholeEvs[I], Evs[I]) << "conn " << Conn << " event " << I;
    if (Corrupt)
      EXPECT_EQ(SP.take().error(), WS.error()) << Conn;
    SP.reset();
    EXPECT_TRUE(SP.events().empty()) << "reset left undrained events";
  }
}

TEST(StreamDiffTest, FeedAfterFinishFails) {
  StreamRig R(makeSexpGrammar());
  StreamParser SP(R.P.M);
  EXPECT_EQ(SP.feed("(a b)"), StreamStatus::NeedData);
  EXPECT_EQ(SP.finish(), StreamStatus::Done);
  EXPECT_EQ(SP.feed("(c)"), StreamStatus::Error);
}

TEST(StreamDiffTest, StreamLexerMatchesLexAll) {
  for (auto &Def : allBenchmarkGrammars()) {
    auto PR = compileFlap(Def);
    ASSERT_TRUE(PR.ok()) << PR.error();
    FlapParser P = PR.take();
    CompiledLexer Lex(*Def->Re, P.Canon);
    Workload W = genWorkload(Def->Name, 17, 600);
    Result<std::vector<Lexeme>> Whole = Lex.lexAll(W.Input);

    for (size_t Step : {size_t(1), size_t(3), size_t(7), size_t(64)}) {
      StreamLexer SL(Lex);
      std::vector<Lexeme> Toks;
      Status St = Status::success();
      for (size_t At = 0; At < W.Input.size() && St.ok(); At += Step)
        St = SL.feed(std::string_view(W.Input).substr(At, Step), Toks);
      if (St.ok())
        St = SL.finish(Toks);
      ASSERT_EQ(Whole.ok(), St.ok()) << Def->Name << " step " << Step;
      if (!Whole.ok())
        continue;
      ASSERT_EQ(Whole->size(), Toks.size()) << Def->Name << " step " << Step;
      for (size_t K = 0; K < Toks.size(); ++K) {
        EXPECT_EQ((*Whole)[K].Tok, Toks[K].Tok);
        EXPECT_EQ((*Whole)[K].Begin, Toks[K].Begin);
        EXPECT_EQ((*Whole)[K].End, Toks[K].End);
      }
    }
  }
}

TEST(StreamDiffTest, StreamLexerErrorOffsets) {
  auto Def = makeSexpGrammar();
  auto PR = compileFlap(Def);
  ASSERT_TRUE(PR.ok());
  FlapParser P = PR.take();
  CompiledLexer Lex(*Def->Re, P.Canon);
  const std::string In = "(abc !def)"; // '!' matches no rule, offset 5
  Result<std::vector<Lexeme>> Whole = Lex.lexAll(In);
  ASSERT_FALSE(Whole.ok());
  for (size_t Cut = 0; Cut <= In.size(); ++Cut) {
    StreamLexer SL(Lex);
    std::vector<Lexeme> Toks;
    Status St = SL.feed(std::string_view(In).substr(0, Cut), Toks);
    if (St.ok())
      St = SL.feed(std::string_view(In).substr(Cut), Toks);
    if (St.ok())
      St = SL.finish(Toks);
    ASSERT_FALSE(St.ok()) << "cut " << Cut;
    EXPECT_EQ(St.error(), Whole.error()) << "cut " << Cut;
  }
}

TEST(StreamDiffTest, RecoveryModeMatchesWholeBufferAtRandomSplits) {
  // Recovery-mode streaming (StreamOptions::Recover) gets the same
  // differential discipline as plain streaming: the recovered segment
  // values, the structured diagnostic list, and the truncation flag
  // must match a recovering CompiledParser::run over the concatenated
  // buffer for random multi-way cuts — cuts that land inside lexemes,
  // inside the resync skipRun scan, and on the sync byte itself.
  // (tests/RecoveryDiffTest.cpp sweeps every two-way split of small
  // inputs; this covers large workloads times random chunking.)
  Rng Rand(515);
  for (auto &Def : allBenchmarkGrammars()) {
    StreamRig R(Def);
    ParseScratch Scratch;
    for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
      Workload W = genWorkload(Def->Name, Seed + 60, 1500);
      std::string In = W.Input;
      // A handful of corruptions spread across the buffer (some may
      // land inside string literals and stay legal — the differential
      // holds either way).
      for (int K = 0; K < 4; ++K)
        In[Rand.below(In.size())] = "!\"%{)];"[Rand.below(7)];
      ParseRequest Req;
      Req.MaxErrors = DefaultMaxErrors;
      RecoveredParse Whole;
      R.P.M.run(Req, In, Scratch, Whole);
      for (int Round = 0; Round < 6; ++Round) {
        StreamOptions O;
        O.Recover = true;
        StreamParser SP(R.P.M, O);
        size_t At = 0;
        while (At < In.size()) {
          size_t N = 1 + Rand.below(Rand.chance(1, 3) ? 8 : 256);
          SP.feed(std::string_view(In).substr(At, N));
          At += N;
        }
        SP.finish();
        std::vector<Value> Vals = SP.takeValues();
        std::vector<ParseDiagnostic> Errs = SP.takeErrors();
        ASSERT_EQ(Whole.Errors.size(), Errs.size())
            << Def->Name << " seed " << Seed << " round " << Round;
        for (size_t I = 0; I < Errs.size(); ++I)
          ASSERT_EQ(Whole.Errors[I], Errs[I])
              << Def->Name << " diagnostic " << I;
        ASSERT_EQ(Whole.Values.size(), Vals.size()) << Def->Name;
        for (size_t I = 0; I < Vals.size(); ++I)
          ASSERT_EQ(Whole.Values[I], Vals[I]) << Def->Name << " value " << I;
        EXPECT_EQ(Whole.Truncated, SP.truncated()) << Def->Name;
      }
    }
  }
}

TEST(StreamDiffTest, MultiEntryStreaming) {
  // Streaming from a non-default entry point: same machine, same tables
  // (paper §8), entry selected via StreamOptions::Start.
  auto Def = makeJsonGrammar();
  StreamRig R(Def);
  // The machine's own start; exercising the options path.
  StreamOptions O;
  O.Start = R.P.M.Start;
  StreamParser SP(R.P.M, O);
  const std::string In = "{\"k\": [1, 2, {}]}";
  for (char C : In)
    SP.feed(std::string_view(&C, 1));
  ASSERT_EQ(SP.finish(), StreamStatus::Done);
  Result<Value> Whole = R.P.parse(In);
  ASSERT_TRUE(Whole.ok());
  EXPECT_EQ(*Whole, *SP.take());
}

} // namespace
