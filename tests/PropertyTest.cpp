//===- tests/PropertyTest.cpp - Randomized property tests ----------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Random well-typed CFEs (generated from the combinators, rejection-
/// sampled through the type checker) are pushed through the entire
/// pipeline and checked against the paper's theorems:
///
///  - Theorem 3.3/3.7: normalization succeeds and yields DGNF;
///  - Theorem 3.8: the normalized language equals the denotation
///    (bounded enumeration);
///  - Theorem 3.1: every derivable word has exactly one derivation;
///  - staging is invisible: the compiled machine accepts exactly the
///    words of the expansion relation, rendered through a lexer.
///
//===----------------------------------------------------------------------===//

#include "cfe/Combinators.h"
#include "core/Expand.h"
#include "core/Normalize.h"
#include "core/Validate.h"
#include "engine/Pipeline.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

constexpr int NumToks = 4; // tokens "a".."d", lexed as single chars

/// Generates a random CFE of bounded depth. All parsers have width 1
/// (integers counting consumed tokens) so composition is unrestricted.
class CfeGen {
public:
  CfeGen(Lang &L, Rng &R) : L(L), R(R) {
    for (int T = 0; T < NumToks; ++T)
      Toks.push_back(static_cast<TokenId>(T));
  }

  Px gen(int Depth, bool AllowVars) {
    unsigned Pick = Depth <= 0 ? R.below(2) : R.below(10);
    switch (Pick) {
    case 0:
    case 1:
      return !Vars.empty() && AllowVars && R.chance(1, 3) ? pickVar()
                                                          : genTok();
    case 2:
      return L.eps(Value::integer(0), "z");
    case 3:
    case 4:
    case 5:
      return L.seqMap(gen(Depth - 1, AllowVars), gen(Depth - 1, true),
                      addFn(), "+");
    case 6:
    case 7:
      return L.alt(gen(Depth - 1, AllowVars), gen(Depth - 1, AllowVars));
    default:
      return L.fix([&](Px Self) {
        Vars.push_back(Self);
        Px Body = gen(Depth - 1, AllowVars);
        Vars.pop_back();
        return Body;
      });
    }
  }

private:
  Px genTok() {
    TokenId T = Toks[R.below(Toks.size())];
    return L.map(
        T == 0 ? L.tok(T) : L.tok(T), // keep shape uniform
        [](ParseContext &, Value *) { return Value::integer(1); }, "t");
  }

  Px pickVar() { return Vars[R.below(Vars.size())]; }

  static ActionFn addFn() {
    return [](ParseContext &, Value *Args) {
      return Value::integer(Args[0].asInt() + Args[1].asInt());
    };
  }

  Lang &L;
  Rng &R;
  std::vector<TokenId> Toks;
  std::vector<Px> Vars;
};

/// One sampled well-typed grammar with its full pipeline.
struct Sample {
  std::shared_ptr<GrammarDef> Def;
  Px Root;
  Grammar G;
  bool Ok = false;
};

Sample trySample(Rng &R) {
  Sample S;
  S.Def = std::make_shared<GrammarDef>("prop");
  // Single-character tokens a..d separated by optional spaces.
  const char *Names[] = {"a", "b", "c", "d"};
  for (int T = 0; T < NumToks; ++T)
    S.Def->Lexer->rule(std::string(1, static_cast<char>('a' + T)),
                       Names[T]);
  S.Def->Lexer->skip(" ");
  CfeGen Gen(*S.Def->L, R);
  S.Root = Gen.gen(4, false);
  S.Def->Root = S.Root;
  if (!S.Def->L->check(S.Root).ok())
    return S;
  auto G = normalize(S.Def->L->Arena, S.Root.Id);
  if (!G.ok())
    return S;
  S.G = G.take();
  S.Ok = true;
  return S;
}

std::string renderWord(const std::vector<TokenId> &W, Rng &R) {
  std::string Out;
  for (TokenId T : W) {
    Out += static_cast<char>('a' + T);
    if (R.chance(1, 3))
      Out += ' ';
  }
  return Out;
}

TEST(PropertyTest, PipelineTheoremsOnRandomCfes) {
  Rng R(2024);
  int Accepted = 0;
  for (int Trial = 0; Trial < 400 && Accepted < 60; ++Trial) {
    Sample S = trySample(R);
    if (!S.Ok)
      continue;
    ++Accepted;

    // Theorem 3.7: the result is DGNF.
    Status V = validateDgnf(S.G, *S.Def->Toks);
    ASSERT_TRUE(V.ok()) << V.error() << "\n" << S.G.str(*S.Def->Toks);

    // Theorem 3.8 + 3.1, bounded at length 5.
    WordCounts Words;
    if (!expandWords(S.G, 5, Words, 1u << 18))
      continue; // frontier cap hit: skip the language comparison
    auto Denoted = denotationWords(S.Def->L->Arena, S.Root.Id, 5);
    std::vector<std::vector<TokenId>> Expanded;
    for (const auto &[W, Count] : Words) {
      EXPECT_EQ(Count, 1u) << "ambiguous derivation in DGNF";
      Expanded.push_back(W);
    }
    ASSERT_EQ(Expanded, Denoted) << S.G.str(*S.Def->Toks);

    // Staging invisibility: the machine accepts every derivable word...
    auto F = compileFlap(S.Def);
    ASSERT_TRUE(F.ok()) << F.error();
    size_t Checked = 0;
    for (const auto &W : Expanded) {
      if (++Checked > 40)
        break;
      std::string In = renderWord(W, R);
      EXPECT_TRUE(F->parse(In).ok())
          << "machine rejects derivable word '" << In << "'";
    }
    // ...and rejects random non-words.
    for (int K = 0; K < 20; ++K) {
      std::vector<TokenId> W;
      size_t Len = R.below(5);
      for (size_t I = 0; I < Len; ++I)
        W.push_back(static_cast<TokenId>(R.below(NumToks)));
      bool InLang =
          std::find(Expanded.begin(), Expanded.end(), W) != Expanded.end();
      if (W.size() <= 5) {
        std::string In = renderWord(W, R);
        EXPECT_EQ(F->parse(In).ok(), InLang)
            << "disagreement on '" << In << "'";
      }
    }
  }
  // The generator must actually produce a healthy number of well-typed
  // samples, or the property run is vacuous.
  EXPECT_GE(Accepted, 30);
}

TEST(PropertyTest, ValueAgreementOnRandomCfes) {
  // For accepted words, the staged machine's semantic value (token
  // count via the + actions) equals the word length.
  Rng R(555);
  int Accepted = 0;
  for (int Trial = 0; Trial < 200 && Accepted < 25; ++Trial) {
    Sample S = trySample(R);
    if (!S.Ok)
      continue;
    ++Accepted;
    auto F = compileFlap(S.Def);
    ASSERT_TRUE(F.ok());
    WordCounts Words;
    if (!expandWords(S.G, 5, Words, 1u << 18))
      continue;
    size_t Checked = 0;
    for (const auto &[W, Count] : Words) {
      if (++Checked > 25)
        break;
      std::string In = renderWord(W, R);
      auto Res = F->parse(In);
      ASSERT_TRUE(Res.ok()) << In;
      EXPECT_EQ(Res->asInt(), static_cast<int64_t>(W.size())) << In;
    }
  }
  EXPECT_GE(Accepted, 10);
}

} // namespace
