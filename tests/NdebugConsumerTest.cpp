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

// The node change must not grow Value: the value stack moves millions.
static_assert(sizeof(Value) <= 24, "Value grew past 24 bytes");

/// Pooled nodes built here with the inline constructors (no owner
/// check in this TU) are compared, printed and freed by the library's
/// assert-enabled code; nodes the library's actions build are read and
/// freed here. Both sides must agree on the node header and the pool.
TEST(NdebugConsumerTest, PooledValuesCrossTheBuildBoundary) {
  const ValuePoolRef Pool = ValuePool::create();
  {
    Value Local = Value::pair(
        Pool, Value::integer(1),
        Value::list(Pool, {Value::integer(2),
                           Value::pair(Pool, Value::integer(3),
                                       Value::unit())}));
    const Value Heap = Value::pair(
        Value::integer(1),
        Value::list({Value::integer(2),
                     Value::pair(Value::integer(3), Value::unit())}));
    EXPECT_EQ(Pool->liveNodes(), 3u);
    EXPECT_EQ(Local, Heap); // library operator==
    EXPECT_EQ(Local.str(), "(1 . [2 (3 . ())])"); // library str()
    Value Copy = Local;
    Local = Value(); // drops one reference; the copy keeps the nodes
    EXPECT_EQ(Pool->liveNodes(), 3u);
    Copy = Value::listAppend(Pool, Copy.asPair().second, Value::integer(4));
    EXPECT_EQ(Copy.str(), "[2 (3 . ()) 4]");
  } // library destroyNode frees every node into the pool
  EXPECT_EQ(Pool->liveNodes(), 0u);

  // The reverse: the library's Pair and star actions fill a scratch
  // pool; this TU walks, copies and drops the results.
  auto Def = std::make_shared<GrammarDef>("pairlist");
  Lang &L = *Def->L;
  TokenId Num = Def->Lexer->rule("[0-9]+", "num");
  Def->Lexer->skip("[ \\n]");
  Def->Root = L.star(
      L.pairUp(L.mapTokenInt(L.tok(Num)), L.mapTokenInt(L.tok(Num))));
  Result<FlapParser> P = compileFlap(Def);
  ASSERT_TRUE(P.ok()) << P.error();
  ParseScratch Scratch;
  Value Kept;
  {
    Result<Value> V = P->M.parse("1 2 3 4 5 6", Scratch);
    ASSERT_TRUE(V.ok()) << V.error();
    ASSERT_TRUE(V->isList());
    const ValueList &Items = V->asList();
    ASSERT_EQ(Items.size(), 3u);
    EXPECT_EQ(Items[1].asPair().first.asInt(), 3);
    EXPECT_EQ(Items[2].asPair().second.asInt(), 6);
    EXPECT_EQ(Scratch.Pool->liveNodes(), 4u);
    Kept = Items[1];
  }
  EXPECT_EQ(Scratch.Pool->liveNodes(), 1u);
  EXPECT_EQ(Kept, Value::pair(Value::integer(3), Value::integer(4)));
  Kept = Value();
  EXPECT_EQ(Scratch.Pool->liveNodes(), 0u);
}

} // namespace
