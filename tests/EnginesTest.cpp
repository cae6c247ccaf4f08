//===- tests/EnginesTest.cpp - Engine equivalence tests -----------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The executable-specification chain: the Fig. 8 token interpreter, the
/// Fig. 9 fused interpreter, the staged machine (Fig. 10) and the unfused
/// engine must all accept the same inputs and compute the same semantic
/// values. Staging, in particular, must be observationally invisible.
///
//===----------------------------------------------------------------------===//

#include "engine/DgnfInterp.h"
#include "engine/FusedInterp.h"
#include "engine/Pipeline.h"
#include "engine/Unfused.h"
#include "grammars/Grammars.h"
#include "lexer/LexerInterp.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

struct Engines {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;
  std::unique_ptr<UnfusedParser> Unfused;

  explicit Engines(std::shared_ptr<GrammarDef> D) : Def(std::move(D)) {
    auto R = compileFlap(Def);
    if (!R.ok()) {
      ADD_FAILURE() << "compile failed: " << R.error();
      return;
    }
    P = R.take();
    Unfused = std::make_unique<UnfusedParser>(
        *Def->Re, P.Canon, P.G, Def->L->Actions, Def->Toks->size());
  }

  /// Runs all four engines; asserts they agree; returns the staged
  /// machine's result.
  Result<Value> runAll(std::string_view In) {
    std::shared_ptr<void> C1, C2, C3, C4;
    auto Fresh = [&](std::shared_ptr<void> &C) -> void * {
      if (Def->NewCtx)
        C = Def->NewCtx();
      return C.get();
    };

    Result<Value> Staged = P.parse(In, Fresh(C1));
    Result<Value> FusedI =
        parseFusedInterp(*Def->Re, P.F, Def->L->Actions, In, Fresh(C2));
    Result<Value> Unf = Unfused->parse(In, Fresh(C3));

    EXPECT_EQ(Staged.ok(), FusedI.ok()) << "fused interp vs staged";
    EXPECT_EQ(Staged.ok(), Unf.ok()) << "unfused vs staged";
    if (Staged.ok() && FusedI.ok())
      EXPECT_EQ(*Staged, *FusedI);
    if (Staged.ok() && Unf.ok())
      EXPECT_EQ(*Staged, *Unf);

    // Fig. 8 over the reference lexer (token-level specification).
    auto Toks = lexAll(*Def->Re, P.Canon, In);
    if (Toks.ok()) {
      Result<Value> Dg =
          parseDgnf(P.G, Def->L->Actions, *Toks, In, Fresh(C4));
      EXPECT_EQ(Staged.ok(), Dg.ok()) << "dgnf interp vs staged";
      if (Staged.ok() && Dg.ok())
        EXPECT_EQ(*Staged, *Dg);
    } else {
      EXPECT_FALSE(Staged.ok()) << "lexing failed but staged accepted";
    }
    return Staged;
  }
};

class SexpEnginesTest : public ::testing::Test {
protected:
  SexpEnginesTest() : E(makeSexpGrammar()) {}
  Engines E;
};

TEST_F(SexpEnginesTest, SimpleAccepts) {
  auto R = E.runAll("(a b (c d) eee)");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->asInt(), 5);
}

TEST_F(SexpEnginesTest, SingleAtom) {
  auto R = E.runAll("hello");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->asInt(), 1);
}

TEST_F(SexpEnginesTest, LeadingAndTrailingWhitespace) {
  auto R = E.runAll("  ( a )  \n");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->asInt(), 1);
}

TEST_F(SexpEnginesTest, DeepNesting) {
  std::string In(200, '(');
  In += "x";
  In += std::string(200, ')');
  auto R = E.runAll(In);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->asInt(), 1);
}

TEST_F(SexpEnginesTest, EmptyList) {
  auto R = E.runAll("()");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->asInt(), 0);
}

TEST_F(SexpEnginesTest, Rejections) {
  EXPECT_FALSE(E.runAll("").ok());       // sexp is not nullable
  EXPECT_FALSE(E.runAll("(").ok());      // unclosed
  EXPECT_FALSE(E.runAll(")").ok());      // stray close
  EXPECT_FALSE(E.runAll("a b").ok());    // trailing second sexp
  EXPECT_FALSE(E.runAll("(a))").ok());   // extra close
  EXPECT_FALSE(E.runAll("(a!)").ok());   // lexing failure
  EXPECT_FALSE(E.runAll("(a").ok());     // EOF inside list
}

TEST_F(SexpEnginesTest, ByteFlipFuzz) {
  // Randomly corrupt a valid input; every engine must agree on the
  // accept/reject verdict (verified inside runAll).
  Rng R(123);
  std::string Base = "(ab (cd ef) (g (h i)) jk)";
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::string In = Base;
    size_t Where = R.below(In.size());
    In[Where] = static_cast<char>(R.below(128));
    E.runAll(In);
  }
}

TEST_F(SexpEnginesTest, TruncationFuzz) {
  std::string Base = "(ab (cd ef) (g (h i)) jk)";
  for (size_t Len = 0; Len <= Base.size(); ++Len)
    E.runAll(Base.substr(0, Len));
}

TEST_F(SexpEnginesTest, RecognizeMatchesParse) {
  for (const char *In :
       {"(a b)", "x", "", "(", "(a", "(a) b", "  (a b (c))  "}) {
    ParseScratch Scr;
    EXPECT_EQ(E.P.M.recognize(In, Scr), E.P.parse(In).ok()) << In;
  }
}

TEST_F(SexpEnginesTest, StagedMachineShape) {
  EXPECT_GT(E.P.M.numStates(), 3);
  EXPECT_LT(E.P.M.numStates(), 64);
  // Character classes compress the alphabet far below 256.
  EXPECT_LT(E.P.M.numClasses(), 16);
}

TEST_F(SexpEnginesTest, ErrorMessagesCarryPosition) {
  auto R = E.P.parse("(a ?");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("offset 3"), std::string::npos) << R.error();
}

//===----------------------------------------------------------------------===//
// All-grammar agreement on generated corpora
//===----------------------------------------------------------------------===//

class AllEnginesTest : public ::testing::TestWithParam<const char *> {};

TEST_P(AllEnginesTest, EnginesAgreeOnWorkload) {
  std::string Name = GetParam();
  std::shared_ptr<GrammarDef> Def;
  for (auto &G : allBenchmarkGrammars())
    if (G->Name == Name)
      Def = G;
  ASSERT_NE(Def, nullptr);
  Engines E(Def);

  for (uint64_t Seed : {1u, 2u, 3u}) {
    Workload W = genWorkload(Name, Seed, 20000);
    auto R = E.runAll(W.Input);
    ASSERT_TRUE(R.ok()) << Name << " seed " << Seed << ": " << R.error();
    if (W.HasExpected)
      EXPECT_EQ(*R, W.Expected) << Name << " seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Grammars, AllEnginesTest,
                         ::testing::Values("sexp", "json", "csv", "pgn",
                                           "ppm", "arith"));

TEST_P(AllEnginesTest, EnginesAgreeOnCorruptedWorkload) {
  std::string Name = GetParam();
  std::shared_ptr<GrammarDef> Def;
  for (auto &G : allBenchmarkGrammars())
    if (G->Name == Name)
      Def = G;
  Engines E(Def);
  Rng R(77);
  Workload W = genWorkload(Name, 9, 2000);
  for (int Trial = 0; Trial < 60; ++Trial) {
    std::string In = W.Input;
    // Flip a few bytes.
    for (int K = 0; K < 3; ++K)
      In[R.below(In.size())] = static_cast<char>(32 + R.below(96));
    E.runAll(In); // agreement asserted inside
  }
}

} // namespace
