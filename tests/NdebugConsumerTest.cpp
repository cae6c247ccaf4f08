//===- tests/NdebugConsumerTest.cpp - NDEBUG consumer of the library ------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A consumer translation unit compiled with NDEBUG against the default
/// (assert-enabled) library. Every class the two sides share must have
/// the same layout in both configurations: the scratch, its ValuePool
/// and the parse values are built here and checked in the library, so a
/// field that exists only in assert builds would make the library read
/// past the consumer's objects (the ValuePool owner check aborted on the
/// first corpus when its Owner field was assert-only).
///
//===----------------------------------------------------------------------===//

// Before any include: this whole TU is the NDEBUG consumer.
#ifndef NDEBUG
#define NDEBUG
#endif

#include "engine/Pipeline.h"
#include "grammars/Grammars.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

TEST(NdebugConsumerTest, ParsesEveryGrammarCorpus) {
  for (const std::shared_ptr<GrammarDef> &Def : allBenchmarkGrammars()) {
    Result<FlapParser> P = compileFlap(Def);
    ASSERT_TRUE(P.ok()) << Def->Name << ": " << P.error();
    Workload W = genWorkload(Def->Name, 11, 50000);
    ParseScratch Scratch;
    for (int Round = 0; Round < 2; ++Round) { // the second reuses the pool
      std::shared_ptr<void> Ctx = Def->NewCtx ? Def->NewCtx() : nullptr;
      Result<Value> V = P->M.parse(W.Input, Scratch, Ctx.get());
      ASSERT_TRUE(V.ok()) << Def->Name << ": " << V.error();
      if (W.HasExpected) {
        EXPECT_EQ(*V, W.Expected) << Def->Name;
      }
    }
    EXPECT_TRUE(P->M.recognize(W.Input, Scratch)) << Def->Name;
  }
}

} // namespace
