//===- tests/ExtensionsTest.cpp - §8 extension features ------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the paper's §8 future-work features implemented here:
/// multiple entry points, chainl1/opt usability combinators, and the
/// expected-token diagnostics derived from machine states. Also covers
/// the >255-state int16 fallback path of the staged machine.
///
//===----------------------------------------------------------------------===//

#include "engine/Pipeline.h"
#include "grammars/Grammars.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

//===----------------------------------------------------------------------===//
// Multiple entry points (§8)
//===----------------------------------------------------------------------===//

TEST(MultiEntryTest, SharedMachineServesSeveralRoots) {
  auto Def = std::make_shared<GrammarDef>("multi");
  Lang &L = *Def->L;
  TokenId Num = Def->Lexer->rule("[0-9]+", "num");
  TokenId Comma = Def->Lexer->rule(",", "comma");
  TokenId Lb = Def->Lexer->rule("\\[", "lb");
  TokenId Rb = Def->Lexer->rule("\\]", "rb");
  Def->Lexer->skip(" ");

  // item := num (value: the integer)
  Px Item = L.map(
      L.tok(Num),
      [](ParseContext &Ctx, Value *A) {
        return Value::integer(spanInt(Ctx, A[0].asToken()));
      },
      "item");
  // list := '[' (item (',' item)*)? ']'  (value: sum of items)
  Px Rest = L.foldr(
      L.keepRight(L.tok(Comma), Item), Value::integer(0),
      [](ParseContext &, Value *A) {
        return Value::integer(A[0].asInt() + A[1].asInt());
      },
      "sumRest");
  Px Items = L.alt(L.eps(Value::integer(0), "noItems"),
                   L.seqMap(Item, Rest,
                            [](ParseContext &, Value *A) {
                              return Value::integer(A[0].asInt() +
                                                    A[1].asInt());
                            },
                            "sumItems"));
  Px List = L.all(
      {L.tok(Lb), Items, L.tok(Rb)},
      [](ParseContext &, Value *A) { return std::move(A[1]); }, "list");

  auto P = compileFlapMulti(Def, {{"list", List}, {"item", Item}});
  ASSERT_TRUE(P.ok()) << P.error();
  ASSERT_EQ(P->Entries.size(), 2u);

  EXPECT_EQ(P->parseEntry("list", "[1, 2, 3]")->asInt(), 6);
  EXPECT_EQ(P->parseEntry("list", "[]")->asInt(), 0);
  EXPECT_EQ(P->parseEntry("item", "42")->asInt(), 42);
  // Each entry accepts only its own language.
  EXPECT_FALSE(P->parseEntry("item", "[1]").ok());
  EXPECT_FALSE(P->parseEntry("list", "42").ok());
  EXPECT_FALSE(P->parseEntry("nope", "42").ok());
  // One shared machine, not two.
  EXPECT_GT(P->M.numStates(), 0);
}

TEST(MultiEntryTest, EntriesShareSubgrammars) {
  // The shared sub-expression normalizes once: the multi grammar is not
  // larger than the sum of two separate pipelines.
  auto Def = std::make_shared<GrammarDef>("multi2");
  Lang &L = *Def->L;
  TokenId A = Def->Lexer->rule("a", "a");
  TokenId B = Def->Lexer->rule("b", "b");
  Px Base = L.seqMap(
      L.tok(A), L.tok(B),
      [](ParseContext &, Value *) { return Value::unit(); }, "ab");
  Px Root1 = L.keepLeft(Base, L.tok(A));
  Px Root2 = L.keepLeft(Base, L.tok(B));
  auto P = compileFlapMulti(Def, {{"r1", Root1}, {"r2", Root2}});
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_TRUE(P->parseEntry("r1", "aba").ok());
  EXPECT_TRUE(P->parseEntry("r2", "abb").ok());
  EXPECT_FALSE(P->parseEntry("r1", "abb").ok());
}

//===----------------------------------------------------------------------===//
// chainl1 / opt
//===----------------------------------------------------------------------===//

struct ChainFixture : ::testing::Test {
  ChainFixture() : Def(std::make_shared<GrammarDef>("chain")) {
    Lang &L = *Def->L;
    TokenId Num = Def->Lexer->rule("[0-9]+", "num");
    TokenId Minus = Def->Lexer->rule("-", "minus");
    Def->Lexer->skip(" ");
    Px Operand = L.map(
        L.tok(Num),
        [](ParseContext &Ctx, Value *A) {
          return Value::integer(spanInt(Ctx, A[0].asToken()));
        },
        "numv");
    Px Op = L.ignore(L.tok(Minus));
    Def->Root = L.chainl1(
        Operand, Op,
        [](ParseContext &, Value Acc, Value, Value Y) {
          return Value::integer(Acc.asInt() - Y.asInt());
        });
    auto R = compileFlap(Def);
    EXPECT_TRUE(R.ok()) << R.error();
    if (R.ok())
      P = std::make_unique<FlapParser>(R.take());
  }
  std::shared_ptr<GrammarDef> Def;
  std::unique_ptr<FlapParser> P;
};

TEST_F(ChainFixture, LeftAssociativity) {
  // 10 - 2 - 3 must be (10-2)-3 = 5, not 10-(2-3) = 11.
  EXPECT_EQ(P->parse("10 - 2 - 3")->asInt(), 5);
  EXPECT_EQ(P->parse("7")->asInt(), 7);
  EXPECT_EQ(P->parse("1 - 1 - 1 - 1")->asInt(), -2);
  EXPECT_FALSE(P->parse("- 1").ok());
  EXPECT_FALSE(P->parse("1 -").ok());
}

TEST(OptTest, ZeroOrOne) {
  auto Def = std::make_shared<GrammarDef>("opt");
  Lang &L = *Def->L;
  TokenId A = Def->Lexer->rule("a", "a");
  TokenId B = Def->Lexer->rule("b", "b");
  // a b?  — value: true iff the b was present.
  Def->Root = L.seqMap(
      L.tok(A), L.opt(L.tok(B)),
      [](ParseContext &, Value *Args) {
        return Value::boolean(Args[1].isToken());
      },
      "hasB");
  auto P = compileFlap(Def);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_FALSE(P->parse("a")->asBool());
  EXPECT_TRUE(P->parse("ab")->asBool());
  EXPECT_FALSE(P->parse("abb").ok());
}

//===----------------------------------------------------------------------===//
// Expected-token diagnostics
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, ErrorsNameExpectedTokens) {
  auto P = compileFlap(makeSexpGrammar());
  ASSERT_TRUE(P.ok());
  auto R = P->parse("(a ?");
  ASSERT_FALSE(R.ok());
  // Failing inside the list: rpar (and the nested sexp alternatives)
  // are the candidates; the message must name at least rpar.
  EXPECT_NE(R.error().find("expected"), std::string::npos) << R.error();
  EXPECT_NE(R.error().find("rpar"), std::string::npos) << R.error();
  EXPECT_NE(R.error().find("offset 3"), std::string::npos) << R.error();

  auto R2 = compileFlap(makeJsonGrammar())->parse("{\"k\" 1}");
  ASSERT_FALSE(R2.ok());
  EXPECT_NE(R2.error().find("colon"), std::string::npos) << R2.error();
}

//===----------------------------------------------------------------------===//
// The >255-state int16 fallback of the staged machine
//===----------------------------------------------------------------------===//

TEST(BigMachineTest, Int16FallbackPath) {
  // Many long distinct keyword tokens force the DFA past 255 states.
  auto Def = std::make_shared<GrammarDef>("big");
  Lang &L = *Def->L;
  std::vector<TokenId> Kws;
  std::vector<std::string> Words;
  for (int I = 0; I < 80; ++I) {
    // Distinct 12-char keywords with distinct prefixes so DFA states
    // cannot share: first two chars encode the index.
    std::string W;
    W += static_cast<char>('a' + I % 26);
    W += static_cast<char>('a' + (I / 26) % 26);
    for (int J = 0; J < 10; ++J)
      W += static_cast<char>('a' + (I * 11 + J * 5) % 26);
    if (std::find(Words.begin(), Words.end(), W) != Words.end())
      continue;
    Words.push_back(W);
    Kws.push_back(Def->Lexer->rule(W, "kw" + std::to_string(I)));
  }
  Def->Lexer->skip(" ");
  // Grammar: count of keywords, any of them, repeated.
  Px Any = L.map(
      L.tok(Kws[0]), [](ParseContext &, Value *) { return Value::integer(1); },
      "one");
  for (size_t I = 1; I < Kws.size(); ++I)
    Any = L.alt(Any, L.map(L.tok(Kws[I]),
                           [](ParseContext &, Value *) {
                             return Value::integer(1);
                           },
                           "one"));
  Def->Root = L.foldr(
      Any, Value::integer(0),
      [](ParseContext &, Value *A) {
        return Value::integer(A[0].asInt() + A[1].asInt());
      },
      "sum");
  auto P = compileFlap(Def);
  ASSERT_TRUE(P.ok()) << P.error();
  ASSERT_GT(P->M.numStates(), 255) << "fixture no longer exercises int16";
  EXPECT_TRUE(P->M.Scan.Trans8.empty());

  std::string In;
  int64_t N = 0;
  for (int Rep = 0; Rep < 50; ++Rep)
    for (const std::string &W : Words) {
      In += W;
      In += ' ';
      ++N;
    }
  auto R = P->parse(In);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->asInt(), N);
  EXPECT_FALSE(P->parse("kwzzzzzz").ok());
}

} // namespace
