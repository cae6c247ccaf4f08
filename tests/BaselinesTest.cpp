//===- tests/BaselinesTest.cpp - Baseline engine tests ------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "baselines/Bnf.h"
#include "baselines/Lalr.h"
#include "baselines/TokenEngines.h"
#include "engine/Pipeline.h"
#include "engine/Unfused.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

//===----------------------------------------------------------------------===//
// BNF lowering
//===----------------------------------------------------------------------===//

TEST(BnfTest, LowersSexp) {
  auto Def = makeSexpGrammar();
  auto G = lowerToBnf(Def->L->Arena, Def->Root.Id);
  ASSERT_TRUE(G.ok()) << G.error();
  EXPECT_GT(G->Rules.size(), 5u);
  // Every rule's RHS symbols are in range.
  for (const BnfRule &R : G->Rules) {
    EXPECT_LT(R.Lhs, G->numNts());
    for (const BnfSym &S : R.Rhs)
      if (!S.IsTok)
        EXPECT_LT(S.Idx, G->numNts());
  }
}

TEST(BnfTest, AllBenchmarksLower) {
  for (const auto &Def : allBenchmarkGrammars()) {
    auto G = lowerToBnf(Def->L->Arena, Def->Root.Id);
    EXPECT_TRUE(G.ok()) << Def->Name << ": " << G.error();
  }
}

//===----------------------------------------------------------------------===//
// LALR construction
//===----------------------------------------------------------------------===//

TEST(LalrTest, BuildsForAllBenchmarks) {
  // LL(1) ⊆ LALR(1): every benchmark grammar must build conflict-free.
  for (const auto &Def : allBenchmarkGrammars()) {
    auto G = lowerToBnf(Def->L->Arena, Def->Root.Id);
    ASSERT_TRUE(G.ok()) << Def->Name;
    auto P = LalrParser::build(*G, Def->Toks->size(), Def->Toks.get());
    ASSERT_TRUE(P.ok()) << Def->Name << ": " << P.error();
    EXPECT_GT(P->numStates(), 2u) << Def->Name;
  }
}

TEST(LalrTest, DetectsAmbiguity) {
  // S → a S | S a | a is ambiguous: must report a conflict.
  BnfGrammar G;
  G.NtNames = {"S"};
  G.RulesOf.resize(1);
  G.Start = 0;
  auto AddRule = [&](std::vector<BnfSym> Rhs) {
    BnfRule R;
    R.Lhs = 0;
    R.Rhs = std::move(Rhs);
    R.RhsWidth = static_cast<int>(R.Rhs.size());
    G.RulesOf[0].push_back(static_cast<uint32_t>(G.Rules.size()));
    G.Rules.push_back(std::move(R));
  };
  AddRule({BnfSym::tok(0), BnfSym::nt(0)});
  AddRule({BnfSym::nt(0), BnfSym::tok(0)});
  AddRule({BnfSym::tok(0)});
  auto P = LalrParser::build(G, 1);
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.error().find("conflict"), std::string::npos);
}

TEST(LalrTest, ParsesArithToken) {
  // A tiny hand-rolled LR exercise: E → E? no — use lowered sexp and a
  // couple of concrete sentences.
  auto Def = makeSexpGrammar();
  auto G = lowerToBnf(Def->L->Arena, Def->Root.Id);
  ASSERT_TRUE(G.ok());
  auto P = LalrParser::build(*G, Def->Toks->size(), Def->Toks.get());
  ASSERT_TRUE(P.ok()) << P.error();

  auto Canon = Def->Lexer->canonicalize();
  ASSERT_TRUE(Canon.ok());
  CompiledLexer Lex(*Def->Re, *Canon);

  auto Toks = Lex.lexAll("(a (b c) d)");
  ASSERT_TRUE(Toks.ok());
  auto R = P->parse(*Toks, Def->L->Actions, "(a (b c) d)");
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->asInt(), 4);

  auto Bad = Lex.lexAll("(a (b c) d");
  ASSERT_TRUE(Bad.ok());
  EXPECT_FALSE(P->parse(*Bad, Def->L->Actions, "(a (b c) d").ok());
}

//===----------------------------------------------------------------------===//
// Cross-engine value agreement: flap vs every baseline
//===----------------------------------------------------------------------===//

class BaselineAgreementTest : public ::testing::TestWithParam<const char *> {
};

TEST_P(BaselineAgreementTest, AllSevenEnginesAgree) {
  std::string Name = GetParam();
  std::shared_ptr<GrammarDef> Def;
  for (auto &G : allBenchmarkGrammars())
    if (G->Name == Name)
      Def = G;
  ASSERT_NE(Def, nullptr);

  auto Flap = compileFlap(Def);
  ASSERT_TRUE(Flap.ok()) << Flap.error();
  auto Bnf = lowerToBnf(Def->L->Arena, Def->Root.Id);
  ASSERT_TRUE(Bnf.ok());
  auto Lalr = LalrParser::build(*Bnf, Def->Toks->size(), Def->Toks.get());
  ASSERT_TRUE(Lalr.ok()) << Lalr.error();
  CompiledLexer Lex(*Def->Re, Flap->Canon);
  TokenTables TT = buildTokenTables(Flap->G, Def->Toks->size());
  PartsStreamParser Parts(*Def->Re, Flap->Canon, Flap->G, Def->L->Actions,
                          Def->Toks->size());
  UnfusedParser Unf(*Def->Re, Flap->Canon, Flap->G, Def->L->Actions,
                    Def->Toks->size());

  auto Fresh = [&](std::shared_ptr<void> &C) -> void * {
    if (Def->NewCtx)
      C = Def->NewCtx();
    return C.get();
  };

  Workload W = genWorkload(Name, 31337, 15000);
  std::shared_ptr<void> C0, C1, C2, C3, C4, C5;
  auto RFlap = Flap->parse(W.Input, Fresh(C0));
  ASSERT_TRUE(RFlap.ok()) << RFlap.error();

  auto Toks = Lex.lexAll(W.Input);
  ASSERT_TRUE(Toks.ok());
  auto RLalr = Lalr->parse(*Toks, Def->L->Actions, W.Input, Fresh(C1));
  ASSERT_TRUE(RLalr.ok()) << Name << ": " << RLalr.error();
  EXPECT_EQ(*RFlap, *RLalr) << Name << " (lalr)";

  auto RRd = parseRdTokens(TT, Def->L->Actions, *Toks, W.Input, Fresh(C2));
  ASSERT_TRUE(RRd.ok()) << RRd.error();
  EXPECT_EQ(*RFlap, *RRd) << Name << " (rd)";

  auto RAsp =
      parseAspTokens(TT, Def->L->Actions, *Toks, W.Input, Fresh(C3));
  ASSERT_TRUE(RAsp.ok()) << RAsp.error();
  EXPECT_EQ(*RFlap, *RAsp) << Name << " (asp)";

  auto RParts = Parts.parse(W.Input, Fresh(C4));
  ASSERT_TRUE(RParts.ok()) << RParts.error();
  EXPECT_EQ(*RFlap, *RParts) << Name << " (parts)";

  auto RUnf = Unf.parse(W.Input, Fresh(C5));
  ASSERT_TRUE(RUnf.ok()) << RUnf.error();
  EXPECT_EQ(*RFlap, *RUnf) << Name << " (unfused)";

  if (W.HasExpected)
    EXPECT_EQ(*RFlap, W.Expected) << Name;
}

INSTANTIATE_TEST_SUITE_P(Grammars, BaselineAgreementTest,
                         ::testing::Values("sexp", "json", "csv", "pgn",
                                           "ppm", "arith"));

TEST_P(BaselineAgreementTest, BaselinesRejectWhatFlapRejects) {
  std::string Name = GetParam();
  std::shared_ptr<GrammarDef> Def;
  for (auto &G : allBenchmarkGrammars())
    if (G->Name == Name)
      Def = G;
  auto Flap = compileFlap(Def);
  ASSERT_TRUE(Flap.ok());
  auto Bnf = lowerToBnf(Def->L->Arena, Def->Root.Id);
  auto Lalr = LalrParser::build(*Bnf, Def->Toks->size(), Def->Toks.get());
  ASSERT_TRUE(Lalr.ok());
  CompiledLexer Lex(*Def->Re, Flap->Canon);
  TokenTables TT = buildTokenTables(Flap->G, Def->Toks->size());

  // Truncations of a valid workload: engines agree on the verdict.
  Workload W = genWorkload(Name, 5, 800);
  for (size_t Cut : {W.Input.size() / 3, W.Input.size() / 2,
                     W.Input.size() - 1}) {
    std::string In = W.Input.substr(0, Cut);
    std::shared_ptr<void> C0, C1, C2;
    auto Fresh = [&](std::shared_ptr<void> &C) -> void * {
      if (Def->NewCtx)
        C = Def->NewCtx();
      return C.get();
    };
    bool FlapOk = Flap->parse(In, Fresh(C0)).ok();
    auto Toks = Lex.lexAll(In);
    bool LalrOk =
        Toks.ok() &&
        Lalr->parse(*Toks, Def->L->Actions, In, Fresh(C1)).ok();
    bool RdOk =
        Toks.ok() &&
        parseRdTokens(TT, Def->L->Actions, *Toks, In, Fresh(C2)).ok();
    EXPECT_EQ(FlapOk, LalrOk) << Name << " cut " << Cut;
    EXPECT_EQ(FlapOk, RdOk) << Name << " cut " << Cut;
  }
}

} // namespace

namespace {

TEST_P(BaselineAgreementTest, RecognitionVariantsAgreeWithParse) {
  std::string Name = GetParam();
  std::shared_ptr<GrammarDef> Def;
  for (auto &G : allBenchmarkGrammars())
    if (G->Name == Name)
      Def = G;
  auto Flap = compileFlap(Def);
  ASSERT_TRUE(Flap.ok());
  auto Bnf = lowerToBnf(Def->L->Arena, Def->Root.Id);
  auto Lalr = LalrParser::build(*Bnf, Def->Toks->size(), Def->Toks.get());
  ASSERT_TRUE(Lalr.ok());
  CompiledLexer Lex(*Def->Re, Flap->Canon);
  TokenTables TT = buildTokenTables(Flap->G, Def->Toks->size());
  PartsStreamParser Parts(*Def->Re, Flap->Canon, Flap->G, Def->L->Actions,
                          Def->Toks->size());
  UnfusedParser Unf(*Def->Re, Flap->Canon, Flap->G, Def->L->Actions,
                    Def->Toks->size());

  // Valid workloads plus truncations: every recognizer must agree with
  // the full parser's verdict.
  Workload W = genWorkload(Name, 77, 4000);
  std::vector<std::string> Inputs = {W.Input, "", "!!",
                                     W.Input.substr(0, W.Input.size() / 2)};
  for (const std::string &In : Inputs) {
    std::shared_ptr<void> Ctx = Def->NewCtx ? Def->NewCtx() : nullptr;
    bool Expect = Flap->parse(In, Ctx.get()).ok();
    ParseScratch Scr;
    EXPECT_EQ(Flap->M.recognize(In, Scr), Expect) << Name;
    EXPECT_EQ(Unf.recognize(In), Expect) << Name;
    EXPECT_EQ(Parts.recognize(In), Expect) << Name;
    auto Toks = Lex.lexAll(In);
    bool LexOk = Toks.ok();
    EXPECT_EQ(LexOk && Lalr->recognize(*Toks), Expect) << Name;
    EXPECT_EQ(LexOk && recognizeRdTokens(TT, *Toks), Expect) << Name;
    EXPECT_EQ(LexOk && recognizeAspTokens(TT, *Toks), Expect) << Name;
  }
}

} // namespace
