//===- tests/LexerTest.cpp - Lexer substrate tests ----------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"
#include "lexer/LexerInterp.h"
#include "lexer/LexerSpec.h"
#include "support/Rng.h"
#include "support/StrUtil.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <limits>

using namespace flap;

namespace {

/// The s-expression lexer of paper Fig. 3b.
struct SexpLexer {
  RegexArena A;
  TokenSet Toks;
  LexerSpec Spec{A, Toks};
  TokenId Atom, Lpar, Rpar;

  SexpLexer() {
    Atom = Spec.rule("[a-z]+", "atom");
    Spec.skip("[ \\n]");
    Lpar = Spec.rule("\\(", "lpar");
    Rpar = Spec.rule("\\)", "rpar");
  }
};

TEST(LexerSpecTest, CanonicalizationDisjoint) {
  SexpLexer L;
  Result<CanonicalLexer> C = L.Spec.canonicalize();
  ASSERT_TRUE(C.ok()) << C.error();
  // All rules pairwise disjoint, including against the skip regex.
  std::vector<RegexId> Rs = C->allRegexes();
  for (size_t I = 0; I < Rs.size(); ++I)
    for (size_t J = I + 1; J < Rs.size(); ++J)
      EXPECT_TRUE(L.A.disjoint(Rs[I], Rs[J]));
}

TEST(LexerSpecTest, KeywordsCutIdentifiers) {
  RegexArena A;
  TokenSet Toks;
  LexerSpec Spec(A, Toks);
  TokenId Let = Spec.rule("let", "let");
  TokenId Id = Spec.rule("[a-z]+", "id");
  Result<CanonicalLexer> C = Spec.canonicalize();
  ASSERT_TRUE(C.ok()) << C.error();
  // "let" is no longer in the id rule's language.
  EXPECT_FALSE(A.matches(C->tokenRegex(A, Id), "let"));
  EXPECT_TRUE(A.matches(C->tokenRegex(A, Id), "lets"));
  EXPECT_TRUE(A.matches(C->tokenRegex(A, Let), "let"));
}

TEST(LexerSpecTest, MergesDuplicateTokensAndSkips) {
  RegexArena A;
  TokenSet Toks;
  LexerSpec Spec(A, Toks);
  TokenId N = Spec.rule("[0-9]+", "num");
  Spec.rule("0x[0-9a-f]+", "num"); // same token, second rule
  Spec.skip(" ");
  Spec.skip("\\n");
  Result<CanonicalLexer> C = Spec.canonicalize();
  ASSERT_TRUE(C.ok()) << C.error();
  ASSERT_EQ(C->Rules.size(), 1u); // one canonical rule for 'num'
  EXPECT_TRUE(A.matches(C->Rules[0].Re, "17"));
  EXPECT_TRUE(A.matches(C->Rules[0].Re, "0xff"));
  EXPECT_EQ(C->Rules[0].Tok, N);
  EXPECT_TRUE(A.matches(C->SkipRe, " "));
  EXPECT_TRUE(A.matches(C->SkipRe, "\n"));
}

TEST(LexerSpecTest, FullyShadowedRuleIsAnError) {
  RegexArena A;
  TokenSet Toks;
  LexerSpec Spec(A, Toks);
  Spec.rule("[a-z]+", "id");
  Spec.rule("abc", "kw"); // completely inside id's language
  Result<CanonicalLexer> C = Spec.canonicalize();
  ASSERT_FALSE(C.ok());
  EXPECT_NE(C.error().find("kw"), std::string::npos);
}

TEST(LexerSpecTest, EpsilonSubtracted) {
  RegexArena A;
  TokenSet Toks;
  LexerSpec Spec(A, Toks);
  Spec.rule("a*", "as"); // nullable rule
  Result<CanonicalLexer> C = Spec.canonicalize();
  ASSERT_TRUE(C.ok()) << C.error();
  EXPECT_FALSE(A.nullable(C->Rules[0].Re));
  EXPECT_TRUE(A.matches(C->Rules[0].Re, "aa"));
}

TEST(LexerInterpTest, SexpExample) {
  SexpLexer L;
  CanonicalLexer C = L.Spec.canonicalize().take();
  auto Lexed = lexAll(L.A, C, "(ab c)\n(d)");
  ASSERT_TRUE(Lexed.ok()) << Lexed.error();
  std::vector<TokenId> Ids;
  for (const Lexeme &T : *Lexed)
    Ids.push_back(T.Tok);
  EXPECT_EQ(Ids, (std::vector<TokenId>{L.Lpar, L.Atom, L.Atom, L.Rpar,
                                       L.Lpar, L.Atom, L.Rpar}));
  // Spans are correct.
  EXPECT_EQ((*Lexed)[1].Begin, 1u);
  EXPECT_EQ((*Lexed)[1].End, 3u);
}

TEST(LexerInterpTest, LongestMatch) {
  RegexArena A;
  TokenSet Toks;
  LexerSpec Spec(A, Toks);
  TokenId Eq = Spec.rule("=", "eq");
  TokenId EqEq = Spec.rule("==", "eqeq");
  CanonicalLexer C = Spec.canonicalize().take();
  auto R = lexAll(A, C, "===");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R->size(), 2u);
  EXPECT_EQ((*R)[0].Tok, EqEq); // longest match first
  EXPECT_EQ((*R)[1].Tok, Eq);
}

TEST(LexerInterpTest, ErrorPosition) {
  SexpLexer L;
  CanonicalLexer C = L.Spec.canonicalize().take();
  auto R = lexAll(L.A, C, "ab !");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("offset 3"), std::string::npos);
}

TEST(LexerInterpTest, EmptyInput) {
  SexpLexer L;
  CanonicalLexer C = L.Spec.canonicalize().take();
  auto R = lexAll(L.A, C, "");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R->empty());
}

/// The spec lexer with its skip regex promoted to an ordinary rule tagged
/// \p SkipTok, so the interpreter reports skip lexemes too (canonical
/// rules and the skip regex are disjoint, so promotion changes nothing
/// else).
CanonicalLexer withVisibleSkips(RegexArena &A, CanonicalLexer C,
                                TokenId SkipTok) {
  if (C.SkipRe != A.empty())
    C.Rules.push_back({C.SkipRe, SkipTok});
  C.SkipRe = A.empty();
  return C;
}

/// Drives nextRaw over \p In: every raw lexeme (skips tagged \p SkipTok),
/// or the interpreter's error string at the offset nextRaw stopped at.
Result<std::vector<Lexeme>> rawLexAll(const CompiledLexer &D,
                                      std::string_view In, TokenId SkipTok) {
  std::vector<Lexeme> Out;
  uint32_t Pos = 0;
  Lexeme L;
  for (;;) {
    switch (D.nextRaw(In, Pos, L)) {
    case LexStatus::Eof:
      return Out;
    case LexStatus::Error:
      return Err(format("lexing failed at offset %u (no rule matches)", Pos));
    case LexStatus::Token:
      if (L.Tok == NoToken)
        L.Tok = SkipTok;
      Out.push_back(L);
      break;
    }
  }
}

/// Checks the compiled lexer against the interpreter on \p In: raw
/// lexemes (skips included) and filtered lexemes, or the same error
/// string (so the same error offset).
void expectAgrees(RegexArena &A, const CanonicalLexer &C,
                  const CanonicalLexer &Visible, const CompiledLexer &D,
                  TokenId SkipTok, const std::string &In,
                  const std::string &What) {
  auto Ref = lexAll(A, C, In);
  auto Got = D.lexAll(In);
  ASSERT_EQ(Ref.ok(), Got.ok()) << What << " input: " << In;
  if (Ref.ok())
    EXPECT_EQ(*Ref, *Got) << What << " input: " << In;
  else
    EXPECT_EQ(Ref.error(), Got.error()) << What;
  auto RawRef = lexAll(A, Visible, In);
  auto RawGot = rawLexAll(D, In, SkipTok);
  ASSERT_EQ(RawRef.ok(), RawGot.ok()) << What << " input: " << In;
  if (RawRef.ok())
    EXPECT_EQ(*RawRef, *RawGot) << What << " input: " << In;
  else
    EXPECT_EQ(RawRef.error(), RawGot.error()) << What;
}

TEST(CompiledLexerTest, AgreesWithInterpreter) {
  const TokenId SkipTok = std::numeric_limits<TokenId>::max();
  {
    SexpLexer L;
    CanonicalLexer C = L.Spec.canonicalize().take();
    CanonicalLexer V = withVisibleSkips(L.A, C, SkipTok);
    CompiledLexer D(L.A, C);
    Rng R(99);
    static const char Chars[] = "abz() \n!()";
    for (int Trial = 0; Trial < 300; ++Trial) {
      std::string In;
      size_t Len = R.below(40);
      for (size_t I = 0; I < Len; ++I)
        In += Chars[R.below(sizeof(Chars) - 1)];
      expectAgrees(L.A, C, V, D, SkipTok, In, "sexp");
    }
  }
  // Every benchmark lexer, on its generated corpus and on mutants of it:
  // random bytes (mostly lexing errors), bytes copied from elsewhere in
  // the corpus (mostly still lexable, with shifted lexeme boundaries),
  // and truncations (end of input inside a lexeme).
  Rng R(2024);
  for (auto &Def : allBenchmarkGrammars()) {
    Result<CanonicalLexer> C = Def->Lexer->canonicalize();
    ASSERT_TRUE(C.ok()) << Def->Name << ": " << C.error();
    RegexArena &A = *Def->Re;
    CanonicalLexer V = withVisibleSkips(A, *C, SkipTok);
    CompiledLexer D(A, *C);
    const std::string Corpus = genWorkload(Def->Name, 5, 2000).Input;
    expectAgrees(A, *C, V, D, SkipTok, Corpus, Def->Name);
    for (int Trial = 0; Trial < 60; ++Trial) {
      std::string In = Corpus;
      const size_t Edits = 1 + R.below(3);
      for (size_t E = 0; E < Edits; ++E) {
        const size_t At = R.below(In.size());
        In[At] = R.chance(1, 2) ? static_cast<char>(R.below(256))
                                : Corpus[R.below(Corpus.size())];
      }
      if (R.chance(1, 3))
        In.resize(R.below(In.size() + 1));
      expectAgrees(A, *C, V, D, SkipTok, In,
                   Def->Name + " mutant " + std::to_string(Trial));
    }
  }
}

TEST(CompiledLexerTest, RawIncludesSkips) {
  SexpLexer L;
  CanonicalLexer C = L.Spec.canonicalize().take();
  CompiledLexer D(L.A, C);
  uint32_t Pos = 0;
  Lexeme T;
  ASSERT_EQ(D.nextRaw("a b", Pos, T), LexStatus::Token);
  EXPECT_EQ(T.Tok, L.Atom);
  ASSERT_EQ(D.nextRaw("a b", Pos, T), LexStatus::Token);
  EXPECT_EQ(T.Tok, NoToken); // the skip lexeme is visible raw
  ASSERT_EQ(D.nextRaw("a b", Pos, T), LexStatus::Token);
  EXPECT_EQ(T.Tok, L.Atom);
  EXPECT_EQ(D.nextRaw("a b", Pos, T), LexStatus::Eof);
}

TEST(CompiledLexerTest, QuotedCsvFieldNeedsLookahead) {
  // The csv case the paper singles out (§6): "" escapes need more than
  // one character of lookahead; longest-match DFA handles it.
  RegexArena A;
  TokenSet Toks;
  LexerSpec Spec(A, Toks);
  TokenId Q = Spec.rule("\"(\"\"|[^\"])*\"", "quoted");
  CanonicalLexer C = Spec.canonicalize().take();
  CompiledLexer D(A, C);
  auto R = D.lexAll("\"a\"\"b\"");
  ASSERT_TRUE(R.ok()) << R.error();
  ASSERT_EQ(R->size(), 1u); // one token covering the whole input
  EXPECT_EQ((*R)[0].Tok, Q);
  EXPECT_EQ((*R)[0].End, 6u);
}

TEST(CompiledLexerTest, StateCountIsReasonable) {
  SexpLexer L;
  CanonicalLexer C = L.Spec.canonicalize().take();
  CompiledLexer D(L.A, C);
  EXPECT_GT(D.numStates(), 1);
  EXPECT_LT(D.numStates(), 32);
  EXPECT_LE(D.numClasses(), 8);
}

} // namespace
