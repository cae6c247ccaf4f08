//===- tests/ServeTest.cpp - Thread-pooled serving harness ---------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The serving front-end (engine/Serve.h) against the direct batch core:
/// replies must carry exactly the outcomes CompiledParser::runBatch
/// produces for the same inputs, strict and recovering, under concurrent
/// submitters, replies consumed and destroyed on foreign threads
/// (the pool handoff), queue backpressure, and the shutdown drain
/// guarantee. This suite is one of the two multithreaded tier-1 suites
/// the tier1-tsan CI lane exists for (the other is ShardDiffTest).
///
//===----------------------------------------------------------------------===//

#include "engine/Pipeline.h"
#include "engine/Serve.h"
#include "grammars/Grammars.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace flap;

namespace {

struct ServeRig {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;
  bool Compiled = false;

  ServeRig() : Def(makeJsonGrammar()) {
    auto R = compileFlap(Def);
    if (!R.ok()) {
      ADD_FAILURE() << "compile failed: " << R.error();
      return;
    }
    P = R.take();
    Compiled = true;
  }
};

std::vector<std::string> docs(size_t N, bool CorruptSome = false) {
  std::vector<std::string> Out;
  for (size_t I = 0; I < N; ++I) {
    if (CorruptSome && I % 5 == 3)
      Out.push_back("{\"bad\": ##" + std::to_string(I) + "}");
    else
      Out.push_back("{\"i\": " + std::to_string(I) + ", \"xs\": [1, [2], " +
                    std::to_string(I * 7) + "]}");
  }
  return Out;
}

std::vector<std::string_view> views(const std::vector<std::string> &Docs) {
  return std::vector<std::string_view>(Docs.begin(), Docs.end());
}

/// A strict outcome as text: the value, or the error a strict wrapper
/// reports.
std::string render(const ParseOutcome &O) {
  return O.Errors.empty() ? O.Values.at(0).str()
                          : "error: " + O.Errors[0].message();
}
std::string render(const Result<Value> &R) {
  return R.ok() ? R->str() : "error: " + R.error();
}

TEST(ServeTest, MatchesDirectBatch) {
  ServeRig Rig;
  if (!Rig.Compiled)
    return;
  const std::vector<std::string> Docs = docs(40);
  const std::vector<std::string_view> Views = views(Docs);

  ParseScratch Scratch;
  const std::vector<Result<Value>> Direct =
      Rig.P.M.parseBatch(Rig.P.M.Start, Views, Scratch);

  ServeOptions O;
  O.Threads = 4;
  ParseService S(Rig.P.M, Rig.P.M.Start, O);
  std::vector<std::future<ServeReply>> Fs;
  for (int R = 0; R < 32; ++R)
    Fs.push_back(S.submit(Views));
  for (auto &F : Fs) {
    ServeReply Rep = F.get();
    ASSERT_TRUE(Rep.Accepted);
    ASSERT_EQ(Rep.Recovered.size(), Direct.size());
    for (size_t I = 0; I < Direct.size(); ++I)
      EXPECT_EQ(render(Direct[I]), render(Rep.Recovered[I])) << I;
  }
}

TEST(ServeTest, RecoverModeMatchesDirect) {
  ServeRig Rig;
  if (!Rig.Compiled)
    return;
  const std::vector<std::string> Docs = docs(25, /*CorruptSome=*/true);
  const std::vector<std::string_view> Views = views(Docs);

  ParseScratch Scratch;
  const std::vector<RecoveredParse> Direct =
      Rig.P.M.parseBatchRecover(Rig.P.M.Start, Views, Scratch);

  ServeOptions O;
  O.Threads = 3;
  O.Recover = true;
  ParseService S(Rig.P.M, Rig.P.M.Start, O);
  ServeReply Rep = S.submit(Views).get();
  ASSERT_TRUE(Rep.Accepted);
  ASSERT_EQ(Rep.Recovered.size(), Direct.size());
  for (size_t I = 0; I < Direct.size(); ++I) {
    EXPECT_EQ(Direct[I].Truncated, Rep.Recovered[I].Truncated) << I;
    ASSERT_EQ(Direct[I].Errors.size(), Rep.Recovered[I].Errors.size()) << I;
    for (size_t E = 0; E < Direct[I].Errors.size(); ++E)
      EXPECT_EQ(Direct[I].Errors[E], Rep.Recovered[I].Errors[E]) << I;
    ASSERT_EQ(Direct[I].Values.size(), Rep.Recovered[I].Values.size()) << I;
    for (size_t V = 0; V < Direct[I].Values.size(); ++V)
      EXPECT_EQ(Direct[I].Values[V].str(), Rep.Recovered[I].Values[V].str())
          << I;
  }
}

/// Concurrent submitters from several threads; every reply correct.
TEST(ServeTest, ConcurrentSubmitters) {
  ServeRig Rig;
  if (!Rig.Compiled)
    return;
  const std::vector<std::string> Docs = docs(16);
  const std::vector<std::string_view> Views = views(Docs);
  ParseScratch Scratch;
  const std::vector<Result<Value>> Direct =
      Rig.P.M.parseBatch(Rig.P.M.Start, Views, Scratch);

  ServeOptions O;
  O.Threads = 4;
  O.QueueCapacity = 8; // force backpressure
  ParseService S(Rig.P.M, Rig.P.M.Start, O);
  std::vector<std::thread> Producers;
  std::vector<int> Failures(4, 0);
  for (int T = 0; T < 4; ++T)
    Producers.emplace_back([&, T] {
      for (int R = 0; R < 25; ++R) {
        ServeReply Rep = S.submit(Views).get(); // consumed on this thread
        if (!Rep.Accepted || Rep.Recovered.size() != Views.size()) {
          ++Failures[T];
          continue;
        }
        for (size_t I = 0; I < Direct.size(); ++I)
          if (!Direct[I].ok() ||
              render(Rep.Recovered[I]) != render(Direct[I]))
            ++Failures[T];
      }
    });
  for (auto &P : Producers)
    P.join();
  for (int T = 0; T < 4; ++T)
    EXPECT_EQ(Failures[T], 0) << "producer " << T;
}

/// Values escaping the reply stay valid after the reply AND the
/// service are gone; replies may be destroyed on a different thread
/// than the one that consumed them.
TEST(ServeTest, EscapedValuesAndForeignDestruction) {
  ServeRig Rig;
  if (!Rig.Compiled)
    return;
  const std::vector<std::string> Docs = docs(8);
  const std::vector<std::string_view> Views = views(Docs);

  std::vector<Value> Escaped;
  std::string Expect;
  {
    ServeOptions O;
    O.Threads = 2;
    ParseService S(Rig.P.M, Rig.P.M.Start, O);
    ServeReply Rep = S.submit(Views).get();
    ASSERT_TRUE(Rep.Accepted);
    Expect = Rep.Recovered[0].Values.at(0).str();
    for (auto &R : Rep.Recovered)
      Escaped.push_back(std::move(R.Values.at(0)));
    // Destroy a whole reply on a foreign thread (the documented
    // single-owner handoff: the thread adopts the pool).
    ServeReply Other = S.submit(Views).get();
    std::thread([Moved = std::move(Other)]() mutable {}).join();
  }
  EXPECT_EQ(Escaped[0].str(), Expect);
  Escaped.clear(); // frees pooled nodes after the bank died
}

/// The bank recycles a pool only once none of its nodes is live; a pool
/// whose values escaped is dropped and dies with its last value.
TEST(ServeTest, PoolBankRecyclesOnlyDeadPools) {
  PoolBank Bank;
  ValuePoolRef P = Bank.acquire();
  const ValuePool *First = P.get();
  Value::pair(P, Value::integer(1), Value::list(P, {Value::integer(2)}));
  Bank.give(std::move(P));
  P = Bank.acquire();
  EXPECT_EQ(P.get(), First) << "a pool with no live node is reused";

  Value Escaped = Value::pair(P, Value::integer(3), Value::integer(4));
  EXPECT_EQ(P->liveNodes(), 1u);
  Bank.give(std::move(P));
  for (int I = 0; I < 8; ++I) {
    ValuePoolRef Next = Bank.acquire();
    EXPECT_NE(Next.get(), First) << "a pool with a live node is reused";
    Value Churn = Value::pair(Next, Value::integer(I), Value::integer(I));
    Bank.give(std::move(Next));
  }
  EXPECT_EQ(Escaped.str(), "(3 . 4)");
}

/// The same through a service: a reply whose values all died hands its
/// pool to the next request; a reply whose value escaped does not, and
/// the escaped value stays intact across many later requests.
TEST(ServeTest, ReplyPoolsRecycleAndEscapedValuesStayIntact) {
  auto Def = std::make_shared<GrammarDef>("pairlist");
  Lang &L = *Def->L;
  TokenId Num = Def->Lexer->rule("[0-9]+", "num");
  Def->Lexer->skip("[ \\n]");
  Def->Root = L.star(
      L.pairUp(L.mapTokenInt(L.tok(Num)), L.mapTokenInt(L.tok(Num))));
  Result<FlapParser> P = compileFlap(Def);
  ASSERT_TRUE(P.ok()) << P.error();
  const std::vector<std::string> Docs = {"1 2 3 4", "5 6", "7 8 9 10 11 12"};
  const std::vector<std::string_view> Views = views(Docs);

  ServeOptions O;
  O.Threads = 1;
  ParseService S(P->M, P->M.Start, O);
  const ValuePool *Reused = nullptr;
  {
    ServeReply Rep = S.submit(Views).get();
    ASSERT_TRUE(Rep.Accepted);
    EXPECT_EQ(render(Rep.Recovered[0]), "[(1 . 2) (3 . 4)]");
    Reused = Rep.pool();
  }
  Value Escaped;
  const ValuePool *Pinned = nullptr;
  {
    ServeReply Rep = S.submit(Views).get();
    EXPECT_EQ(Rep.pool(), Reused) << "dead reply's pool not recycled";
    Pinned = Rep.pool();
    Escaped = std::move(Rep.Recovered[2].Values.at(0));
  }
  const std::string Expect = "[(7 . 8) (9 . 10) (11 . 12)]";
  for (int R = 0; R < 50; ++R) {
    ServeReply Rep = S.submit(Views).get();
    ASSERT_TRUE(Rep.Accepted);
    EXPECT_NE(Rep.pool(), Pinned) << "pool with a live value recycled";
    EXPECT_EQ(render(Rep.Recovered[2]), Expect);
    EXPECT_EQ(Escaped.str(), Expect) << "request " << R;
  }
  EXPECT_EQ(Escaped.str(), Expect);
}

TEST(ServeTest, ShutdownDrainsAndRejectsLateSubmits) {
  ServeRig Rig;
  if (!Rig.Compiled)
    return;
  const std::vector<std::string> Docs = docs(12);
  const std::vector<std::string_view> Views = views(Docs);
  ServeOptions O;
  O.Threads = 2;
  ParseService S(Rig.P.M, Rig.P.M.Start, O);
  std::vector<std::future<ServeReply>> Fs;
  for (int R = 0; R < 30; ++R)
    Fs.push_back(S.submit(Views));
  S.shutdown();
  for (auto &F : Fs) {
    ServeReply Rep = F.get(); // every accepted future becomes ready
    ASSERT_TRUE(Rep.Accepted);
    EXPECT_EQ(Rep.Recovered.size(), Views.size());
  }
  ServeReply Late = S.submit(Views).get();
  EXPECT_FALSE(Late.Accepted);
  EXPECT_TRUE(Late.Recovered.empty());
  S.shutdown(); // idempotent
}

/// A zero queue capacity behaves as one: submit() must not block until
/// shutdown. The submit runs on a helper thread so a regression fails
/// the test (after a shutdown that unblocks it) instead of hanging it.
TEST(ServeTest, ZeroQueueCapacityStillServes) {
  ServeRig Rig;
  if (!Rig.Compiled)
    return;
  const std::vector<std::string> Docs = docs(3);
  const std::vector<std::string_view> Views = views(Docs);
  ServeOptions O;
  O.Threads = 1;
  O.QueueCapacity = 0;
  ParseService S(Rig.P.M, Rig.P.M.Start, O);
  std::promise<ServeReply> Got;
  std::future<ServeReply> F = Got.get_future();
  std::thread Submitter(
      [&] { Got.set_value(S.submit(Views).get()); });
  const bool Ready =
      F.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!Ready)
    S.shutdown();
  Submitter.join();
  ASSERT_TRUE(Ready) << "submit() blocked with QueueCapacity = 0";
  ServeReply Rep = F.get();
  EXPECT_TRUE(Rep.Accepted);
  ASSERT_EQ(Rep.Recovered.size(), Views.size());
  for (const ParseOutcome &Out : Rep.Recovered)
    EXPECT_TRUE(Out.clean());
}

} // namespace
