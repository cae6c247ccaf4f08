//===- tests/WorkloadsTest.cpp - Corpus generator tests ------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "engine/Pipeline.h"
#include "grammars/Grammars.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

class WorkloadTest : public ::testing::TestWithParam<const char *> {};

TEST_P(WorkloadTest, DeterministicFromSeed) {
  std::string Name = GetParam();
  Workload A = genWorkload(Name, 42, 5000);
  Workload B = genWorkload(Name, 42, 5000);
  EXPECT_EQ(A.Input, B.Input);
  Workload C = genWorkload(Name, 43, 5000);
  EXPECT_NE(A.Input, C.Input);
}

TEST_P(WorkloadTest, RespectsTargetSize) {
  std::string Name = GetParam();
  for (size_t Target : {1000u, 20000u, 100000u}) {
    Workload W = genWorkload(Name, 7, Target);
    EXPECT_GE(W.Input.size(), Target * 9 / 10) << Name;
    EXPECT_LE(W.Input.size(), Target * 2 + 4096) << Name;
  }
}

TEST_P(WorkloadTest, ParsesWithExpectedValue) {
  std::string Name = GetParam();
  std::shared_ptr<GrammarDef> Def;
  for (auto &G : allBenchmarkGrammars())
    if (G->Name == Name)
      Def = G;
  ASSERT_NE(Def, nullptr);
  auto P = compileFlap(Def);
  ASSERT_TRUE(P.ok()) << P.error();
  for (uint64_t Seed : {100u, 200u}) {
    Workload W = genWorkload(Name, Seed, 30000);
    std::shared_ptr<void> Ctx = Def->NewCtx ? Def->NewCtx() : nullptr;
    auto R = P->parse(W.Input, Ctx.get());
    ASSERT_TRUE(R.ok()) << Name << ": " << R.error();
    if (W.HasExpected)
      EXPECT_EQ(*R, W.Expected) << Name << " seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Grammars, WorkloadTest,
                         ::testing::Values("sexp", "json", "csv", "pgn",
                                           "ppm", "arith"));

TEST(WorkloadSemanticsTest, CsvWorkloadIsConsistent) {
  auto Def = makeCsvGrammar();
  auto P = compileFlap(Def);
  ASSERT_TRUE(P.ok());
  Workload W = genWorkload("csv", 17, 20000);
  auto Ctx = std::static_pointer_cast<CsvCtx>(Def->NewCtx());
  ASSERT_TRUE(P->parse(W.Input, Ctx.get()).ok());
  EXPECT_TRUE(Ctx->Consistent); // generator emits fixed-width rows
  EXPECT_GE(Ctx->FirstCols, 3);
}

TEST(WorkloadSemanticsTest, PpmWorkloadIsValidImage) {
  auto Def = makePpmGrammar();
  auto P = compileFlap(Def);
  ASSERT_TRUE(P.ok());
  Workload W = genWorkload("ppm", 23, 30000);
  auto Ctx = std::static_pointer_cast<PpmCtx>(Def->NewCtx());
  auto R = P->parse(W.Input, Ctx.get());
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_TRUE(R->asBool());
  EXPECT_GT(Ctx->Samples, 1000);
  EXPECT_LE(Ctx->MaxSample, 255);
}

TEST(WorkloadSemanticsTest, PgnWorkloadTalliesResults) {
  auto Def = makePgnGrammar();
  auto P = compileFlap(Def);
  ASSERT_TRUE(P.ok());
  Workload W = genWorkload("pgn", 29, 40000);
  auto Ctx = std::static_pointer_cast<PgnCtx>(Def->NewCtx());
  auto R = P->parse(W.Input, Ctx.get());
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(Ctx->White + Ctx->Black + Ctx->Draw + Ctx->Unknown,
            R->asInt());
}

} // namespace
