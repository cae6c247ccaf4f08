//===- tests/GrammarsTest.cpp - Benchmark grammar semantics -------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "engine/Pipeline.h"
#include "grammars/Grammars.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

/// Compiles a named grammar and provides a parse helper with a fresh
/// user context per call.
struct Compiled {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;
  std::shared_ptr<void> LastCtx;

  explicit Compiled(std::shared_ptr<GrammarDef> D) : Def(std::move(D)) {
    auto R = compileFlap(Def);
    EXPECT_TRUE(R.ok()) << R.error();
    if (R.ok())
      P = R.take();
  }

  Result<Value> parse(std::string_view In) {
    LastCtx = Def->NewCtx ? Def->NewCtx() : nullptr;
    return P.parse(In, LastCtx.get());
  }
};

//===----------------------------------------------------------------------===//
// sexp
//===----------------------------------------------------------------------===//

TEST(SexpGrammarTest, CountsAtoms) {
  Compiled C(makeSexpGrammar());
  EXPECT_EQ(C.parse("(a b c)")->asInt(), 3);
  EXPECT_EQ(C.parse("a1b2")->asInt(), 1);
  EXPECT_EQ(C.parse("(())")->asInt(), 0);
  EXPECT_EQ(C.parse("((a) (b (c (d))))")->asInt(), 4);
}

//===----------------------------------------------------------------------===//
// json
//===----------------------------------------------------------------------===//

TEST(JsonGrammarTest, CountsObjects) {
  Compiled C(makeJsonGrammar());
  EXPECT_EQ(C.parse("{}")->asInt(), 1);
  EXPECT_EQ(C.parse("[]")->asInt(), 0);
  EXPECT_EQ(C.parse("[{}, {\"a\": {}}]")->asInt(), 3);
  EXPECT_EQ(C.parse("{\"a\": [1, 2, {\"b\": null}], \"c\": true}")
                ->asInt(),
            2);
  EXPECT_EQ(C.parse("")->asInt(), 0); // empty stream
  EXPECT_EQ(C.parse("{} {} {}")->asInt(), 3); // message stream
}

TEST(JsonGrammarTest, Literals) {
  Compiled C(makeJsonGrammar());
  EXPECT_TRUE(C.parse("true").ok());
  EXPECT_TRUE(C.parse("false").ok());
  EXPECT_TRUE(C.parse("null").ok());
  EXPECT_TRUE(C.parse("-12.5e+3").ok());
  EXPECT_TRUE(C.parse("\"escaped \\\" quote\"").ok());
  EXPECT_TRUE(C.parse("  [1, \"x\", {\"k\": [true]}]  ").ok());
}

TEST(JsonGrammarTest, Rejections) {
  Compiled C(makeJsonGrammar());
  EXPECT_FALSE(C.parse("{").ok());
  EXPECT_FALSE(C.parse("{\"a\"}").ok());      // missing colon
  EXPECT_FALSE(C.parse("{\"a\":}").ok());     // missing value
  EXPECT_FALSE(C.parse("[1, ]").ok());        // trailing comma
  EXPECT_FALSE(C.parse("{,}").ok());
  EXPECT_FALSE(C.parse("tru").ok());          // lexing failure
  EXPECT_FALSE(C.parse("[1 2]").ok());        // missing comma
  EXPECT_FALSE(C.parse("\"unterminated").ok());
}

//===----------------------------------------------------------------------===//
// csv
//===----------------------------------------------------------------------===//

TEST(CsvGrammarTest, CountsRecords) {
  Compiled C(makeCsvGrammar());
  EXPECT_EQ(C.parse("a,b,c\r\n1,2,3\r\n")->asInt(), 2);
  EXPECT_EQ(C.parse("\r\n")->asInt(), 1); // one record, one empty field
  EXPECT_EQ(C.parse("")->asInt(), 0);
}

TEST(CsvGrammarTest, FieldCountConsistency) {
  Compiled C(makeCsvGrammar());
  ASSERT_TRUE(C.parse("a,b\r\nc,d\r\n").ok());
  EXPECT_TRUE(static_cast<CsvCtx *>(C.LastCtx.get())->Consistent);
  EXPECT_EQ(static_cast<CsvCtx *>(C.LastCtx.get())->FirstCols, 2);

  ASSERT_TRUE(C.parse("a,b\r\nc\r\n").ok());
  EXPECT_FALSE(static_cast<CsvCtx *>(C.LastCtx.get())->Consistent);
}

TEST(CsvGrammarTest, EmptyAndQuotedFields) {
  Compiled C(makeCsvGrammar());
  // Empty fields in every position.
  ASSERT_TRUE(C.parse(",a,\r\n").ok());
  EXPECT_EQ(static_cast<CsvCtx *>(C.LastCtx.get())->FirstCols, 3);
  // Quoted fields with escaped quotes, commas and embedded CRLF.
  EXPECT_EQ(C.parse("\"a\"\"b\",\"c,d\",\"e\r\nf\"\r\n")->asInt(), 1);
}

TEST(CsvGrammarTest, MandatoryTerminatingCrlf) {
  Compiled C(makeCsvGrammar());
  EXPECT_FALSE(C.parse("a,b").ok());        // no CRLF
  EXPECT_FALSE(C.parse("a,b\n").ok());      // bare LF is not CRLF
  EXPECT_FALSE(C.parse("a,b\r\nc,d").ok()); // last record unterminated
}

//===----------------------------------------------------------------------===//
// pgn
//===----------------------------------------------------------------------===//

const char *const SmallPgn =
    "[Event \"casual\"]\n[White \"ann\"]\n[Black \"bob\"]\n\n"
    "1. e4 e5 2. Nf3 Nc6 3. Bb5 {a comment} a6 1-0\n\n"
    "[Event \"rematch\"]\n[White \"bob\"]\n[Black \"ann\"]\n\n"
    "1. d4 d5 1/2-1/2\n";

TEST(PgnGrammarTest, CountsGamesAndResults) {
  Compiled C(makePgnGrammar());
  auto R = C.parse(SmallPgn);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->asInt(), 2);
  auto *Ctx = static_cast<PgnCtx *>(C.LastCtx.get());
  EXPECT_EQ(Ctx->White, 1);
  EXPECT_EQ(Ctx->Draw, 1);
  EXPECT_EQ(Ctx->Black, 0);
}

TEST(PgnGrammarTest, CastlingAndAnnotations) {
  Compiled C(makePgnGrammar());
  EXPECT_EQ(C.parse("[A \"b\"]\n1. O-O-O Qxe7+ 2. a8=Q Kxa8 0-1\n")
                ->asInt(),
            1);
}

TEST(PgnGrammarTest, Rejections) {
  Compiled C(makePgnGrammar());
  EXPECT_FALSE(C.parse("1. e4 e5 1-0\n").ok()); // games need tags
  EXPECT_FALSE(C.parse("[A \"b\"]\n1. e4\n").ok()); // missing result
  EXPECT_FALSE(C.parse("[A \"b\" extra]\n1. e4 *\n").ok());
}

//===----------------------------------------------------------------------===//
// ppm
//===----------------------------------------------------------------------===//

TEST(PpmGrammarTest, ValidImage) {
  Compiled C(makePpmGrammar());
  auto R = C.parse("P3\n# comment\n2 1\n255\n0 1 2  10 20 30\n");
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_TRUE(R->asBool());
  auto *Ctx = static_cast<PpmCtx *>(C.LastCtx.get());
  EXPECT_EQ(Ctx->Samples, 6);
  EXPECT_EQ(Ctx->MaxSample, 30);
}

TEST(PpmGrammarTest, SemanticViolationsDetected) {
  Compiled C(makePpmGrammar());
  // Wrong pixel count: parses but the check fails.
  auto R1 = C.parse("P3\n2 1\n255\n0 1 2 3\n");
  ASSERT_TRUE(R1.ok());
  EXPECT_FALSE(R1->asBool());
  // Sample exceeding maxval.
  auto R2 = C.parse("P3\n1 1\n255\n0 999 2\n");
  ASSERT_TRUE(R2.ok());
  EXPECT_FALSE(R2->asBool());
}

TEST(PpmGrammarTest, Rejections) {
  Compiled C(makePpmGrammar());
  EXPECT_FALSE(C.parse("P6\n1 1\n255\n0 0 0\n").ok()); // wrong magic
  EXPECT_FALSE(C.parse("P3\n1\n").ok());               // header cut short
}

//===----------------------------------------------------------------------===//
// arith
//===----------------------------------------------------------------------===//

TEST(ArithGrammarTest, Arithmetic) {
  Compiled C(makeArithGrammar());
  EXPECT_EQ(C.parse("1 + 2 * 3;")->asInt(), 7);
  EXPECT_EQ(C.parse("(1 + 2) * 3;")->asInt(), 9);
  EXPECT_EQ(C.parse("10 - 2 - 3;")->asInt(), 5);  // left associative
  EXPECT_EQ(C.parse("100 / 5 / 2;")->asInt(), 10);
  EXPECT_EQ(C.parse("7 / 0;")->asInt(), 0); // guarded division
}

TEST(ArithGrammarTest, Comparison) {
  Compiled C(makeArithGrammar());
  EXPECT_EQ(C.parse("1 < 2;")->asInt(), 1);
  EXPECT_EQ(C.parse("2 < 1;")->asInt(), 0);
  EXPECT_EQ(C.parse("3 == 1 + 2;")->asInt(), 1);
  EXPECT_EQ(C.parse("4 > 5;")->asInt(), 0);
}

TEST(ArithGrammarTest, LetAndIf) {
  Compiled C(makeArithGrammar());
  EXPECT_EQ(C.parse("let x = 4 in x * x;")->asInt(), 16);
  EXPECT_EQ(C.parse("let x = 2 in let y = x + 1 in x * y;")->asInt(), 6);
  EXPECT_EQ(C.parse("if 1 < 2 then 10 else 20;")->asInt(), 10);
  EXPECT_EQ(C.parse("if 2 < 1 then 10 else 20;")->asInt(), 20);
  // Shadowing: inner binding wins.
  EXPECT_EQ(C.parse("let x = 1 in let x = 2 in x;")->asInt(), 2);
  // Unbound variables read as 0.
  EXPECT_EQ(C.parse("zz + 3;")->asInt(), 3);
}

TEST(ArithGrammarTest, MultipleTermsSum) {
  Compiled C(makeArithGrammar());
  EXPECT_EQ(C.parse("1 + 1; 2 * 2; 5;")->asInt(), 11);
  EXPECT_EQ(C.parse("")->asInt(), 0);
}

TEST(ArithGrammarTest, KeywordsAreNotIdentifiers) {
  Compiled C(makeArithGrammar());
  // "lettuce" is an identifier starting with a keyword prefix.
  EXPECT_EQ(C.parse("let lettuce = 5 in lettuce;")->asInt(), 5);
  EXPECT_FALSE(C.parse("let let = 1 in 2;").ok());
}

TEST(ArithGrammarTest, Rejections) {
  Compiled C(makeArithGrammar());
  EXPECT_FALSE(C.parse("1 +;").ok());
  EXPECT_FALSE(C.parse("1 + 2").ok());         // missing semicolon
  EXPECT_FALSE(C.parse("let x 4 in x;").ok()); // missing '='
  EXPECT_FALSE(C.parse("if 1 then 2;").ok());  // missing else
  EXPECT_FALSE(C.parse("1 < 2 < 3;").ok());    // no chained comparison
}

//===----------------------------------------------------------------------===//
// Table 1 size sanity for every grammar
//===----------------------------------------------------------------------===//

TEST(GrammarSizesTest, AllGrammarsCompileWithSaneSizes) {
  for (const auto &Def : allBenchmarkGrammars()) {
    auto R = compileFlap(Def);
    ASSERT_TRUE(R.ok()) << Def->Name << ": " << R.error();
    const SizeStats &S = R->Sizes;
    EXPECT_GT(S.LexRules, 2u) << Def->Name;
    EXPECT_GT(S.CfeNodes, 5u) << Def->Name;
    EXPECT_GT(S.NumNts, 0u) << Def->Name;
    EXPECT_GE(S.NumProds, S.NumNts) << Def->Name;
    EXPECT_GE(S.FusedProds, S.NumProds) << Def->Name;
    EXPECT_GT(S.OutputFunctions, S.NumNts) << Def->Name;
    EXPECT_LT(S.OutputFunctions, 2000u) << Def->Name;
  }
}

TEST(GrammarSizesTest, SexpMatchesTable1) {
  auto R = compileFlap(makeSexpGrammar());
  ASSERT_TRUE(R.ok());
  // Paper Table 1, sexp row: 4 lex rules, 3 NTs, 6 prods, 9 fused.
  EXPECT_EQ(R->Sizes.LexRules, 4u);
  EXPECT_EQ(R->Sizes.NumNts, 3u);
  EXPECT_EQ(R->Sizes.NumProds, 6u);
  EXPECT_EQ(R->Sizes.FusedProds, 9u);
}

} // namespace
