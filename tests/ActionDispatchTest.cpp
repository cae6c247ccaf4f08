//===- tests/ActionDispatchTest.cpp - Action dispatch vs the spec --------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Suite for the devirtualized semantic-action path. The tagged
/// micro-op dispatch (plus dead-token elision, pre-fused ε-chains and
/// the arena value pool) must be observationally identical to the
/// Fig. 9 reference interpreter (parseFusedInterp: unrewritten symbol
/// stream, ValueStack::apply, heap values):
///
///   - whole buffer: CompiledParser::parse (tagged, elided, pooled) vs
///     the spec — byte-identical Value trees and error strings;
///   - streaming: StreamParser vs the whole-buffer result, across split
///     points (the StreamDiffTest driver shape);
///   - per kind: every ActionKind through apply (with and without a
///     pool) and its micro-op projection against a literal expected
///     value — the spec shares apply with the engines, so only literals
///     can catch a kind that is wrong in both.
///
//===----------------------------------------------------------------------===//

#include "engine/FusedInterp.h"
#include "engine/Pipeline.h"
#include "engine/Shard.h"
#include "engine/Stream.h"
#include "grammars/Grammars.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <thread>

using namespace flap;

namespace {

struct DispatchRig {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;

  explicit DispatchRig(std::shared_ptr<GrammarDef> D) : Def(std::move(D)) {
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

  /// The Fig. 9 spec from the start symbol, with the engine's
  /// expected-token sets so error strings compare verbatim.
  Result<Value> spec(std::string_view In, void *User = nullptr) {
    return parseFusedInterp(*Def->Re, P.F, Def->L->Actions, In, User, NoNt,
                            Def->Toks.get());
  }

  /// Streams \p In cut at \p Cuts.
  Result<Value> streamParse(std::string_view In,
                            const std::vector<size_t> &Cuts) {
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
    return SP.take();
  }

  /// Tagged vs the spec whole-buffer, then streamed at \p Cuts vs
  /// whole-buffer: same verdict, byte-identical values (structural ==),
  /// identical error strings.
  void checkAll(std::string_view In, const std::vector<size_t> &Cuts) {
    std::shared_ptr<void> C1, C2;
    ParseScratch Scratch;
    Result<Value> Tagged = P.M.parse(In, Scratch, fresh(C1));
    Result<Value> Spec = spec(In, fresh(C2));
    ASSERT_EQ(Tagged.ok(), Spec.ok())
        << Def->Name << ": tagged vs spec verdict on '" << In << "'";
    if (Tagged.ok())
      EXPECT_EQ(*Tagged, *Spec) << Def->Name << " value drift on '" << In
                                << "'";
    else
      EXPECT_EQ(Tagged.error(), Spec.error()) << Def->Name;

    Result<Value> Streamed = streamParse(In, Cuts);
    ASSERT_EQ(Streamed.ok(), Tagged.ok()) << Def->Name << " (streamed)";
    if (Tagged.ok())
      EXPECT_EQ(*Streamed, *Tagged) << Def->Name << " streamed value";
    else
      EXPECT_EQ(Streamed.error(), Tagged.error()) << Def->Name;
  }
};

TEST(ActionDispatchTest, WholeBufferAndChunkedOnAllGrammars) {
  Rng Rand(2027);
  for (auto &Def : allBenchmarkGrammars()) {
    DispatchRig R(Def);
    for (uint64_t Seed : {5u, 19u}) {
      Workload W = genWorkload(Def->Name, Seed, 2500 + Seed * 500);
      // Whole buffer, plus random multi-way chunkings.
      R.checkAll(W.Input, {});
      for (int Round = 0; Round < 4; ++Round) {
        std::vector<size_t> Cuts;
        size_t At = 0;
        while (At < W.Input.size()) {
          At += 1 + Rand.below(Rand.chance(1, 3) ? 7 : 301);
          if (At < W.Input.size())
            Cuts.push_back(At);
        }
        R.checkAll(W.Input, Cuts);
      }
    }
  }
}

TEST(ActionDispatchTest, EveryTwoWaySplitOnSmallInputs) {
  // The exhaustive split sweep of the StreamDiffTest driver, applied to
  // the tagged-vs-spec comparison.
  for (auto &Def : allBenchmarkGrammars()) {
    DispatchRig R(Def);
    Workload W = genWorkload(Def->Name, 23, 220);
    for (size_t Cut = 0; Cut <= W.Input.size(); ++Cut)
      R.checkAll(W.Input, {Cut});
  }
}

TEST(ActionDispatchTest, ErrorStringsIdenticalOnCorruptedInputs) {
  Rng Rand(11);
  for (auto &Def : allBenchmarkGrammars()) {
    DispatchRig R(Def);
    Workload W = genWorkload(Def->Name, 29, 280);
    for (int Round = 0; Round < 10; ++Round) {
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
      for (size_t Cut = 0; Cut <= In.size(); Cut += 5)
        R.checkAll(In, {Cut});
    }
  }
}

TEST(ActionDispatchTest, TokenIntAndMaxAccumAgreeWithReferences) {
  // The TokenInt and MaxAccum micro-op kinds (the devirtualized ppm
  // per-sample path) against the spec, whole-buffer and at every 2-way
  // split: the packed count+max fold must come out bit-identical
  // everywhere.
  auto Def = std::make_shared<GrammarDef>("stats");
  Lang &L = *Def->L;
  TokenId Num = Def->Lexer->rule("[0-9]+", "num");
  Def->Lexer->skip("[ \\n]");
  Def->Root = L.foldMaxAccum(L.mapTokenInt(L.tok(Num)));
  DispatchRig R(Def);
  for (const std::string In :
       {"", "7", "0", "1 2 3", "9 8 7 6 5", "40 2 40", "007 3",
        "4294967 1 4294967"}) {
    R.checkAll(In, {});
    for (size_t Cut = 0; Cut <= In.size(); ++Cut)
      R.checkAll(In, {Cut});
  }
  // Unpack semantics: count in the low 32 bits, max in the high 32.
  Result<Value> V = R.P.parse("3 1 4 1 5");
  ASSERT_TRUE(V.ok()) << V.error();
  EXPECT_EQ(maxAccumCount(V->asInt()), 5);
  EXPECT_EQ(maxAccumMax(V->asInt()), 5);
  // Samples past the 32-bit pack saturate to 2^32-1 — still above any
  // 32-bit bound, so out-of-range detection survives — and must never
  // corrupt the count half (the shift would otherwise be signed-
  // overflow UB).
  Result<Value> Big = R.P.parse("42 4294967296 99999999999 7");
  ASSERT_TRUE(Big.ok()) << Big.error();
  EXPECT_EQ(maxAccumCount(Big->asInt()), 4);
  EXPECT_EQ(maxAccumMax(Big->asInt()), 4294967295LL);
  // ppm: an oversized sample must still fail the color-range check.
  {
    auto PpmDef = makePpmGrammar();
    auto PpmP = compileFlap(PpmDef);
    ASSERT_TRUE(PpmP.ok());
    Result<Value> Bad = PpmP->parse("P3\n1 1\n255\n0 4294967296 2\n");
    ASSERT_TRUE(Bad.ok());
    EXPECT_FALSE(Bad->asBool());
  }
  Result<Value> E = R.P.parse("");
  ASSERT_TRUE(E.ok());
  EXPECT_EQ(E->asInt(), 0);
  // The ppm grammar rides these kinds: its hot actions must all be
  // micro-ops now (only the cold root check stays custom).
  auto Ppm = makePpmGrammar();
  auto PP = compileFlap(Ppm);
  ASSERT_TRUE(PP.ok());
  int Slow = 0;
  for (size_t A = 0; A < Ppm->L->Actions.size(); ++A)
    Slow += Ppm->L->Actions.micro()[A].K == MicroOp::MSlow;
  EXPECT_EQ(Slow, 1) << "ppm should keep exactly the root check custom";
}

/// A grammar whose value is pooled structure: a list of (int . int)
/// pairs, built by the Pair micro-op and the arena-backed star.
std::shared_ptr<GrammarDef> makePairListGrammar() {
  auto Def = std::make_shared<GrammarDef>("pairlist");
  Lang &L = *Def->L;
  TokenId Num = Def->Lexer->rule("[0-9]+", "num");
  Def->Lexer->skip("[ \\n]");
  Def->Root = L.star(
      L.pairUp(L.mapTokenInt(L.tok(Num)), L.mapTokenInt(L.tok(Num))));
  return Def;
}

TEST(ActionDispatchTest, PooledValuesEscapeTheirScratch) {
  // Arena-backed values must stay valid after the scratch (and its
  // pool handle) is gone: the pool outlives its last handle while any
  // of its nodes is live. arith builds genuine pair structure mid-parse;
  // json/sexp return scalars — both paths covered.
  for (const char *Name : {"arith", "json"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    DispatchRig R(Def);
    Workload W = genWorkload(Name, 31, 1500);
    Result<Value> Ref = R.spec(W.Input);
    ASSERT_TRUE(Ref.ok()) << Ref.error();
    Value Escaped;
    {
      auto Scratch = std::make_unique<ParseScratch>();
      Result<Value> V = R.P.M.parse(W.Input, *Scratch);
      ASSERT_TRUE(V.ok()) << V.error();
      Escaped = V.take();
      // Reuse the scratch (recycles dead nodes), then destroy it.
      Result<Value> V2 = R.P.M.parse(W.Input, *Scratch);
      ASSERT_TRUE(V2.ok());
    }
    EXPECT_EQ(Escaped, *Ref) << Name;
  }

  // A pooled result outlives its scratch, is copied and dropped on
  // another thread (refcounts stay atomic), and frees its orphaned pool
  // when the last copy dies here (LeakSanitizer would flag a leak).
  {
    DispatchRig R(makePairListGrammar());
    const std::string In = "1 2 3 4 5 6 7 8";
    Result<Value> Ref = R.spec(In);
    ASSERT_TRUE(Ref.ok()) << Ref.error();
    EXPECT_EQ(Ref->str(), "[(1 . 2) (3 . 4) (5 . 6) (7 . 8)]");
    Value Escaped;
    {
      ParseScratch Scratch;
      Result<Value> V = R.P.M.parse(In, Scratch);
      ASSERT_TRUE(V.ok()) << V.error();
      Escaped = V.take();
      // One list node plus four pair nodes.
      EXPECT_EQ(Scratch.Pool->liveNodes(), 5u);
    }
    std::thread([Copy = Escaped]() mutable { Copy = Value(); }).join();
    EXPECT_EQ(Escaped, *Ref);

    // The same through a destroyed StreamParser.
    Value Streamed;
    {
      StreamParser SP(R.P.M);
      SP.feed(In.substr(0, 5));
      SP.feed(In.substr(5));
      ASSERT_EQ(SP.finish(), StreamStatus::Done);
      Streamed = SP.take().take();
    }
    EXPECT_EQ(Streamed, *Ref);
  }

  const std::shared_ptr<GrammarDef> Arith = makeArithGrammar();
  DispatchRig R(Arith);
  Workload W = genWorkload("arith", 41, 6000);
  Result<Value> Ref = R.spec(W.Input);
  ASSERT_TRUE(Ref.ok()) << Ref.error();

  // An arith value taken from a destroyed StreamParser.
  {
    Value Streamed;
    {
      StreamParser SP(R.P.M);
      for (size_t At = 0; At < W.Input.size(); At += 509)
        SP.feed(std::string_view(W.Input).substr(At, 509));
      ASSERT_EQ(SP.finish(), StreamStatus::Done);
      Streamed = SP.take().take();
      EXPECT_EQ(SP.pool()->liveNodes(), 0u);
    }
    EXPECT_EQ(Streamed, *Ref);
  }

  // A warmed scratch: every AST node dies inside the parse, and a
  // re-parse recycles them without growing the arena.
  {
    ParseScratch Scratch;
    Result<Value> V = R.P.M.parse(W.Input, Scratch);
    ASSERT_TRUE(V.ok()) << V.error();
    EXPECT_EQ(*V, *Ref);
    EXPECT_EQ(Scratch.Pool->liveNodes(), 0u);
    const size_t Pages = Scratch.Pool->pageCount();
    EXPECT_GT(Pages, 0u);
    for (int Round = 0; Round < 3; ++Round) {
      Result<Value> Again = R.P.M.parse(W.Input, Scratch);
      ASSERT_TRUE(Again.ok());
      EXPECT_EQ(*Again, *Ref);
      EXPECT_EQ(Scratch.Pool->pageCount(), Pages) << "round " << Round;
      EXPECT_EQ(Scratch.Pool->liveNodes(), 0u);
    }
  }

  // An arith ShardParser result (two threads) that outlives its parser.
  {
    Result<FlapParser> RP = compileFlapRecords(Arith);
    ASSERT_TRUE(RP.ok()) << RP.error();
    const NtId Rec = recordEntry(*RP);
    ASSERT_NE(Rec, NoNt);
    std::string Corpus;
    for (int I = 0; I < 400; ++I)
      Corpus += "let x = " + std::to_string(I) + " in (x + 2) * x - " +
                std::to_string(I % 7) + ";\n";
    ShardedValues Seq, Par;
    {
      ShardOptions O;
      O.Threads = 1;
      ShardParser SP(RP->M, Rec, O);
      Seq = SP.parseValues(Corpus);
    }
    {
      ShardOptions O;
      O.Threads = 2;
      O.MinShardBytes = 1024; // split this small corpus
      ShardParser SP(RP->M, Rec, O);
      Par = SP.parseValues(Corpus);
    }
    ASSERT_TRUE(Seq.Ok) << Seq.ErrMsg;
    ASSERT_TRUE(Par.Ok) << Par.ErrMsg;
    EXPECT_EQ(Par.NumRecords, 400u);
    EXPECT_GT(Par.Stats.Shards, 1u);
    EXPECT_EQ(Par.Values, Seq.Values);
    ASSERT_EQ(Par.Values.size(), 400u);
    EXPECT_EQ(Par.Values[3].asInt(), (3 + 2) * 3 - 3);
  }
}

/// CustomP payload for the kind table below: adds the payload integer.
Value addPayload(ParseContext &, Value *Args, const void *Payload) {
  return Value::integer(Args[0].asInt() + *static_cast<const int64_t *>(
                                              Payload));
}

TEST(ActionDispatchTest, EveryActionKindAgainstLiteralResults) {
  // The engines and the spec share ValueStack::apply, so a kind that is
  // wrong there is wrong in both and no differential suite can see it.
  // Pin every kind against a literal: through apply without a pool and
  // with one, through applyPooled (the engines' occurrence dispatch),
  // and, where the micro-op table projects the kind, applyMicroOp.
  const std::string_view Input = "  42 xyz"; // "42" at [2,4), "xyz" [5,8)
  static const int64_t Hundred = 100;
  const Value Tok42 = Value::token(0, 2, 4), TokXyz = Value::token(0, 5, 8);
  const auto I = [](int64_t V) { return Value::integer(V); };
  ActionTable AT;
  struct Case {
    ActionId Id;
    std::vector<Value> Args;
    Value Want;
  };
  const std::vector<Case> Cases = {
      {AT.add(2, [](ParseContext &, Value *A) {
         return Value::integer(A[0].asInt() * 10 + A[1].asInt());
       }),
       {I(3), I(4)}, I(34)},
      {AT.addP(1, addPayload, &Hundred), {I(5)}, I(105)},
      {AT.addConst(Value::string("k"), "str", 1), {I(7)}, Value::string("k")},
      {AT.addConst(I(5)), {}, I(5)},
      {AT.addConst(Value::boolean(true), "yes", 2), {I(1), I(2)},
       Value::boolean(true)},
      {AT.addConst(Value::unit(), "unit", 1), {I(1)}, Value::unit()},
      {AT.addSelect(3, 2), {I(1), I(2), I(3)}, I(3)},
      {AT.addSelect(3, 0), {I(1), I(2), I(3)}, I(1)},
      {AT.addPair(), {I(1), I(2)}, Value::pair(I(1), I(2))},
      {AT.addTokenText(), {TokXyz}, Value::string("xyz")},
      {AT.addListNew(3), {I(1), I(2), I(3)},
       Value::list({I(1), I(2), I(3)})},
      // List elements, so a swapped selector is a wrong value, not a
      // non-list append.
      {AT.addListPush(0), {Value::list({I(1)}), Value::list({I(2)})},
       Value::list({I(1), Value::list({I(2)})})},
      {AT.addListPush(1), {Value::list({I(3)}), Value::list({I(1)})},
       Value::list({I(1), Value::list({I(3)})})},
      {AT.addAddArgs(3, 0, 2), {I(10), I(99), I(5)}, I(15)},
      {AT.addAddImm(2, 1, 7), {I(0), I(35)}, I(42)},
      {AT.addTokenInt(2, 1), {Value::unit(), Tok42}, I(42)},
      {AT.addMaxAccum(2, 0, 1), {I(maxAccumStep(0, 9)), I(4)},
       I((int64_t(9) << 32) | 2)},
  };
  const ValuePoolRef Pool = ValuePool::create();
  for (const Case &C : Cases) {
    const Action &A = AT.get(C.Id);
    SCOPED_TRACE(A.Name + " (kind " + std::to_string(int(A.Kind)) + ")");
    MicroOp Occ = AT.micro()[C.Id];
    if (Occ.K == MicroOp::MSlow)
      Occ.Imm = C.Id; // an op-pool occurrence carries its ActionId
    // Mode 0: apply, heap; 1: apply, pooled; 2: applyPooled; 3: micro.
    for (int Mode = 0; Mode < 4; ++Mode) {
      if (Mode == 3 && AT.micro()[C.Id].K == MicroOp::MSlow)
        continue; // not projected: apply is its only implementation
      ParseContext Ctx{Input, nullptr, 0, Mode == 0 ? nullptr : Pool};
      ValueStack VS;
      for (const Value &V : C.Args)
        VS.push(V);
      if (Mode <= 1)
        VS.apply(A, Ctx);
      else if (Mode == 2)
        VS.applyPooled(Occ, AT, Ctx);
      else
        VS.applyMicroOp(AT.micro()[C.Id], Ctx);
      ASSERT_EQ(VS.size(), 1u) << "mode " << Mode;
      const Value Got = VS.pop();
      EXPECT_EQ(Got, C.Want) << "mode " << Mode << ": got " << Got.str()
                             << ", want " << C.Want.str();
    }
  }
  EXPECT_EQ(Pool->liveNodes(), 0u);

  // Dead-token elision rewrites Select occurrences to drop an ignored
  // argument: the shifted selector must still read its own argument.
  MicroOp Elided;
  Elided.K = MicroOp::MSelect;
  Elided.Arity = 2;
  Elided.Sel = 1;
  Elided.Flags = MicroOp::FRewritten;
  ParseContext Ctx{Input, nullptr, 0, nullptr};
  ValueStack VS;
  VS.push(I(8));
  VS.push(I(9));
  VS.applyMicroOp(Elided, Ctx);
  ASSERT_EQ(VS.size(), 1u);
  EXPECT_EQ(VS.pop(), I(9));
}

TEST(ActionDispatchTest, ListAppendAndReverseCopyOnWrite) {
  // listAppend/listReversed mutate in place only when the node is
  // uniquely owned; a copy taken first must never see the mutation.
  const ValuePoolRef Pool = ValuePool::create();
  for (const ValuePoolRef &P : {ValuePoolRef(), Pool}) {
    const Value Base =
        Value::list(P, {Value::integer(1), Value::integer(2)});
    Value Copy = Base;
    Value Appended = Value::listAppend(P, Copy, Value::integer(3));
    EXPECT_EQ(Base.str(), "[1 2]");
    EXPECT_EQ(Copy.str(), "[1 2]");
    EXPECT_EQ(Appended.str(), "[1 2 3]");
    Value Reversed = Value::listReversed(P, Appended);
    EXPECT_EQ(Appended.str(), "[1 2 3]");
    EXPECT_EQ(Reversed.str(), "[3 2 1]");

    // Uniquely owned: the same node is reused in place.
    Value Unique = Value::list(P, {Value::integer(7)});
    const ValueList *Node = &Unique.asList();
    Unique = Value::listAppend(P, std::move(Unique), Value::integer(8));
    Unique = Value::listReversed(P, std::move(Unique));
    EXPECT_EQ(&Unique.asList(), Node);
    EXPECT_EQ(Unique.str(), "[8 7]");
  }
  EXPECT_EQ(Pool->liveNodes(), 0u);
}

TEST(ActionDispatchTest, LongPairChainsFreeWithoutRecursion) {
  // A right-nested chain frees its spine iteratively: half a million
  // nested frames would overflow the stack.
  const ValuePoolRef Pool = ValuePool::create();
  Value Chain;
  for (int I = 0; I < 500000; ++I)
    Chain = Value::pair(Pool, Value::integer(I), std::move(Chain));
  EXPECT_EQ(Pool->liveNodes(), 500000u);
  Chain = Value();
  EXPECT_EQ(Pool->liveNodes(), 0u);
}

TEST(ActionDispatchTest, ReadsInputFlagsMatchTheGrammars) {
  // json/sexp/csv never read lexeme text → the streaming parser may
  // drop retain tracking wholesale; pgn/ppm/arith do read.
  for (auto &Def : allBenchmarkGrammars()) {
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok());
    bool Reads = Def->L->Actions.readsInput();
    bool Expect = Def->Name == "pgn" || Def->Name == "ppm" ||
                  Def->Name == "arith";
    EXPECT_EQ(Reads, Expect) << Def->Name;
  }
}

TEST(ActionDispatchTest, CarryStaysLexemeSizedWithTrackingOff) {
  // With no input-reading actions, the streaming carry is just the
  // suspended lexeme — not the document (ROADMAP follow-up (a)).
  DispatchRig R(makeJsonGrammar());
  ASSERT_FALSE(R.Def->L->Actions.readsInput());
  Workload W = genWorkload("json", 37, 64 * 1024);
  StreamParser SP(R.P.M);
  std::string_view In = W.Input;
  for (size_t At = 0; At < In.size(); At += 997)
    SP.feed(In.substr(At, 997));
  ASSERT_EQ(SP.finish(), StreamStatus::Done) << SP.take().error();
  EXPECT_LT(SP.carryHighWater(), 2048u)
      << "carry should be lexeme-sized, not document-sized";
}

} // namespace
