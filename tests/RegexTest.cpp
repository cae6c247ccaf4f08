//===- tests/RegexTest.cpp - Regex substrate tests ----------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "regex/Regex.h"
#include "regex/RegexParser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

class RegexTest : public ::testing::Test {
protected:
  RegexArena A;
};

//===----------------------------------------------------------------------===//
// CharSet
//===----------------------------------------------------------------------===//

TEST(CharSetTest, BasicOps) {
  CharSet S = CharSet::range('a', 'c');
  EXPECT_TRUE(S.contains('a'));
  EXPECT_TRUE(S.contains('c'));
  EXPECT_FALSE(S.contains('d'));
  EXPECT_EQ(S.size(), 3);
  EXPECT_EQ(S.first(), 'a');
}

TEST(CharSetTest, Algebra) {
  CharSet A = CharSet::range('a', 'm'), B = CharSet::range('h', 'z');
  EXPECT_EQ((A | B).size(), 26);
  EXPECT_EQ((A & B), CharSet::range('h', 'm'));
  EXPECT_EQ((A - B), CharSet::range('a', 'g'));
  EXPECT_EQ((~A).size(), 256 - 13);
  EXPECT_EQ(~~A, A);
}

TEST(CharSetTest, EmptyAndAll) {
  EXPECT_TRUE(CharSet::none().empty());
  EXPECT_EQ(CharSet::all().size(), 256);
  EXPECT_EQ(~CharSet::none(), CharSet::all());
}

TEST(CharSetTest, Ranges) {
  CharSet S = CharSet::ofString("abcxz");
  auto R = S.ranges();
  ASSERT_EQ(R.size(), 3u);
  EXPECT_EQ(R[0].first, 'a');
  EXPECT_EQ(R[0].second, 'c');
  EXPECT_EQ(R[1].first, 'x');
  EXPECT_EQ(R[2].first, 'z');
}

TEST(CharSetTest, RefinePartition) {
  std::vector<CharSet> P1 = {CharSet::range('a', 'm'),
                             ~CharSet::range('a', 'm')};
  std::vector<CharSet> P2 = {CharSet::range('h', 'z'),
                             ~CharSet::range('h', 'z')};
  auto R = refinePartition(P1, P2);
  // Partitions stay disjoint and covering.
  int Total = 0;
  for (const CharSet &S : R)
    Total += S.size();
  EXPECT_EQ(Total, 256);
  for (size_t I = 0; I < R.size(); ++I)
    for (size_t J = I + 1; J < R.size(); ++J)
      EXPECT_TRUE((R[I] & R[J]).empty());
}

//===----------------------------------------------------------------------===//
// Smart constructors (weak canonical forms)
//===----------------------------------------------------------------------===//

TEST_F(RegexTest, HashConsing) {
  RegexId R1 = A.seq(A.chr('a'), A.chr('b'));
  RegexId R2 = A.seq(A.chr('a'), A.chr('b'));
  EXPECT_EQ(R1, R2);
}

TEST_F(RegexTest, SeqLaws) {
  RegexId R = A.chr('x');
  EXPECT_EQ(A.seq(A.empty(), R), A.empty());
  EXPECT_EQ(A.seq(R, A.empty()), A.empty());
  EXPECT_EQ(A.seq(A.eps(), R), R);
  EXPECT_EQ(A.seq(R, A.eps()), R);
  // Right-associated spine: (a·b)·c == a·(b·c).
  RegexId Abc1 = A.seq(A.seq(A.chr('a'), A.chr('b')), A.chr('c'));
  RegexId Abc2 = A.seq(A.chr('a'), A.seq(A.chr('b'), A.chr('c')));
  EXPECT_EQ(Abc1, Abc2);
}

TEST_F(RegexTest, AltLaws) {
  RegexId R = A.chr('x'), S = A.chr('y');
  EXPECT_EQ(A.alt(R, R), R);
  EXPECT_EQ(A.alt(A.empty(), R), R);
  EXPECT_EQ(A.alt(R, A.empty()), R);
  EXPECT_EQ(A.alt(R, S), A.alt(S, R)); // commutative modulo consing
  EXPECT_EQ(A.alt(A.top(), R), A.top());
  // Classes merge: a|b == [ab].
  EXPECT_EQ(A.alt(R, S), A.cls(CharSet::ofString("xy")));
}

TEST_F(RegexTest, AndNotStarLaws) {
  RegexId R = A.literal("ab");
  EXPECT_EQ(A.and_(R, R), R);
  EXPECT_EQ(A.and_(A.empty(), R), A.empty());
  EXPECT_EQ(A.and_(A.top(), R), R);
  EXPECT_EQ(A.not_(A.not_(R)), R);
  EXPECT_EQ(A.star(A.star(R)), A.star(R));
  EXPECT_EQ(A.star(A.eps()), A.eps());
  EXPECT_EQ(A.star(A.empty()), A.eps());
}

TEST_F(RegexTest, ClassOfEmptySetIsBottom) {
  EXPECT_EQ(A.cls(CharSet::none()), A.empty());
}

//===----------------------------------------------------------------------===//
// Nullability and derivatives
//===----------------------------------------------------------------------===//

TEST_F(RegexTest, Nullable) {
  EXPECT_FALSE(A.nullable(A.empty()));
  EXPECT_TRUE(A.nullable(A.eps()));
  EXPECT_FALSE(A.nullable(A.chr('a')));
  EXPECT_TRUE(A.nullable(A.star(A.chr('a'))));
  EXPECT_TRUE(A.nullable(A.opt(A.chr('a'))));
  EXPECT_FALSE(A.nullable(A.plus(A.chr('a'))));
  EXPECT_TRUE(A.nullable(A.not_(A.chr('a'))));
  EXPECT_FALSE(A.nullable(A.not_(A.eps())));
  EXPECT_FALSE(A.nullable(A.and_(A.star(A.chr('a')), A.chr('b'))));
}

TEST_F(RegexTest, DerivativeBasics) {
  // ∂a(a·b) = b
  EXPECT_EQ(A.derive(A.literal("ab"), 'a'), A.chr('b'));
  EXPECT_EQ(A.derive(A.literal("ab"), 'b'), A.empty());
  // ∂a(a*) = a*
  RegexId Star = A.star(A.chr('a'));
  EXPECT_EQ(A.derive(Star, 'a'), Star);
}

TEST_F(RegexTest, Matches) {
  RegexId Id = A.plus(A.range('a', 'z'));
  EXPECT_TRUE(A.matches(Id, "hello"));
  EXPECT_FALSE(A.matches(Id, ""));
  EXPECT_FALSE(A.matches(Id, "hi5"));
  RegexId Not = A.not_(Id);
  EXPECT_FALSE(A.matches(Not, "hello"));
  EXPECT_TRUE(A.matches(Not, ""));
  EXPECT_TRUE(A.matches(Not, "hi5"));
}

TEST_F(RegexTest, DerivativeLanguageProperty) {
  // ∂c(r) matches s iff r matches c·s, on random regexes and strings.
  Rng R(7);
  RegexId Re = mustParseRegex(A, "(ab|ba)*(a|b)&~(aaa.*)");
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::string S;
    size_t Len = R.below(6);
    for (size_t I = 0; I < Len; ++I)
      S += static_cast<char>('a' + R.below(2));
    unsigned char C = static_cast<unsigned char>('a' + R.below(2));
    EXPECT_EQ(A.matches(A.derive(Re, C), S),
              A.matches(Re, std::string(1, C) + S));
  }
}

//===----------------------------------------------------------------------===//
// Character classes
//===----------------------------------------------------------------------===//

TEST_F(RegexTest, ClassesArePartition) {
  RegexId Re = mustParseRegex(A, "[a-m]x|[h-z]+y?");
  auto Parts = A.classes(Re);
  int Total = 0;
  for (const CharSet &S : Parts) {
    EXPECT_FALSE(S.empty());
    Total += S.size();
  }
  EXPECT_EQ(Total, 256);
}

TEST_F(RegexTest, ClassesRespectDerivatives) {
  // All bytes within one class have identical derivatives.
  RegexId Re = mustParseRegex(A, "([a-f]|[d-k]z)*q");
  for (const CharSet &Part : std::vector<CharSet>(A.classes(Re))) {
    RegexId D = A.derive(Re, Part.first());
    for (auto [Lo, Hi] : Part.ranges())
      for (int C = Lo; C <= Hi; ++C)
        EXPECT_EQ(A.derive(Re, static_cast<unsigned char>(C)), D);
  }
}

//===----------------------------------------------------------------------===//
// Decision procedures
//===----------------------------------------------------------------------===//

TEST_F(RegexTest, Emptiness) {
  EXPECT_TRUE(A.isEmptyLang(A.empty()));
  EXPECT_FALSE(A.isEmptyLang(A.eps()));
  // Syntactically non-⊥ but semantically empty (needs the automaton).
  RegexId R = A.and_(A.plus(A.chr('a')), A.plus(A.chr('b')));
  EXPECT_TRUE(A.isEmptyLang(R));
  RegexId S = A.and_(A.star(A.chr('a')), A.star(A.chr('b')));
  EXPECT_FALSE(A.isEmptyLang(S)); // both contain ε
}

TEST_F(RegexTest, Equivalence) {
  RegexId R1 = mustParseRegex(A, "(a|b)*");
  RegexId R2 = mustParseRegex(A, "(a*b*)*");
  EXPECT_TRUE(A.equivalent(R1, R2));
  RegexId R3 = mustParseRegex(A, "(a|b)+");
  EXPECT_FALSE(A.equivalent(R1, R3));
  // De Morgan.
  RegexId L = A.not_(A.alt(A.literal("x"), A.literal("y")));
  RegexId Rr = A.and_(A.not_(A.literal("x")), A.not_(A.literal("y")));
  EXPECT_TRUE(A.equivalent(L, Rr));
}

TEST_F(RegexTest, ContainmentAndDisjointness) {
  RegexId Letters = mustParseRegex(A, "[a-z]+");
  RegexId Hello = A.literal("hello");
  EXPECT_TRUE(A.contains(Hello, Letters));
  EXPECT_FALSE(A.contains(Letters, Hello));
  EXPECT_TRUE(A.disjoint(Letters, mustParseRegex(A, "[0-9]+")));
  EXPECT_FALSE(A.disjoint(Letters, mustParseRegex(A, "h.*")));
}

TEST_F(RegexTest, Universality) {
  EXPECT_TRUE(A.isUniversal(A.top()));
  EXPECT_TRUE(A.isUniversal(A.star(A.anyChar())));
  EXPECT_FALSE(A.isUniversal(A.star(A.chr('a'))));
}

TEST_F(RegexTest, Witness) {
  std::string W;
  ASSERT_TRUE(A.witness(mustParseRegex(A, "ab*c"), W));
  EXPECT_TRUE(A.matches(mustParseRegex(A, "ab*c"), W));
  EXPECT_FALSE(A.witness(A.empty(), W));
  ASSERT_TRUE(A.witness(mustParseRegex(A, "[a-z]+&~(a[a-z]*)"), W));
  EXPECT_NE(W[0], 'a');
}

//===----------------------------------------------------------------------===//
// Pattern parser
//===----------------------------------------------------------------------===//

struct PatternCase {
  const char *Pattern;
  const char *Input;
  bool Match;
};

class PatternMatchTest : public ::testing::TestWithParam<PatternCase> {};

TEST_P(PatternMatchTest, MatchesExpected) {
  RegexArena A;
  const PatternCase &C = GetParam();
  RegexId Re = mustParseRegex(A, C.Pattern);
  EXPECT_EQ(A.matches(Re, C.Input), C.Match)
      << C.Pattern << " on '" << C.Input << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, PatternMatchTest,
    ::testing::Values(
        PatternCase{"abc", "abc", true}, PatternCase{"abc", "ab", false},
        PatternCase{"a|b", "b", true}, PatternCase{"a|b", "ab", false},
        PatternCase{"a*", "", true}, PatternCase{"a*", "aaaa", true},
        PatternCase{"a+", "", false}, PatternCase{"a?b", "b", true},
        PatternCase{"a?b", "ab", true}, PatternCase{"a?b", "aab", false},
        PatternCase{"[a-c]+", "abccba", true},
        PatternCase{"[^a-c]", "d", true}, PatternCase{"[^a-c]", "b", false},
        PatternCase{"a{3}", "aaa", true}, PatternCase{"a{3}", "aa", false},
        PatternCase{"a{2,4}", "aaa", true},
        PatternCase{"a{2,4}", "aaaaa", false},
        PatternCase{"a{2,}", "aaaaaa", true},
        PatternCase{"\\d+", "123", true}, PatternCase{"\\d+", "12a", false},
        PatternCase{"\\w+", "ab_9", true},
        PatternCase{"\\s", "\t", true},
        PatternCase{".", "\n", false}, PatternCase{".", "x", true},
        PatternCase{"\\.", ".", true}, PatternCase{"\\.", "x", false},
        PatternCase{"a&~b", "a", true},
        PatternCase{"[a-z]+&~(do|if)", "do", false},
        PatternCase{"[a-z]+&~(do|if)", "dog", true},
        PatternCase{"~(a*)", "ab", true}, PatternCase{"~(a*)", "aa", false},
        PatternCase{"\\x41", "A", true},
        PatternCase{"(a|)b", "b", true}, PatternCase{"(a|)b", "ab", true},
        PatternCase{"\"(\"\"|[^\"])*\"", "\"a\"\"b\"", true},
        PatternCase{"\"(\"\"|[^\"])*\"", "\"a\"b\"", false}));

TEST(PatternErrorTest, ReportsErrors) {
  RegexArena A;
  EXPECT_FALSE(parseRegex(A, "(ab").ok());
  EXPECT_FALSE(parseRegex(A, "[a-").ok());
  EXPECT_FALSE(parseRegex(A, "a{2,1}").ok());
  EXPECT_FALSE(parseRegex(A, "a\\").ok());
  EXPECT_FALSE(parseRegex(A, "a{x}").ok());
  EXPECT_FALSE(parseRegex(A, "\\xZZ").ok());
  EXPECT_FALSE(parseRegex(A, "a)b").ok());
  Result<RegexId> E = parseRegex(A, "(ab");
  EXPECT_NE(E.error().find("offset"), std::string::npos);
}

TEST_F(RegexTest, PrinterRoundTrip) {
  // str() output re-parses to an equivalent regex.
  for (const char *P : {"[a-z]+", "a(b|c)*d", "~(ab)&[a-z]*", "a{2,3}b?",
                        "(\"(\"\"|[^\"])*\")"}) {
    RegexId R1 = mustParseRegex(A, P);
    RegexId R2 = mustParseRegex(A, A.str(R1));
    EXPECT_TRUE(A.equivalent(R1, R2)) << P << " => " << A.str(R1);
  }
}

} // namespace
