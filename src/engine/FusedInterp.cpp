//===- engine/FusedInterp.cpp - Fused-grammar parsing (Fig. 9) ---------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "engine/FusedInterp.h"

#include "engine/Diagnostic.h"

#include <cassert>

using namespace flap;

namespace {

/// Longest prefix of Input[Pos..] matching \p Re, or 0 when none
/// (including when only the empty prefix matches).
size_t longestMatch(RegexArena &Arena, RegexId Re, std::string_view Input,
                    size_t Pos) {
  RegexId Cur = Re;
  size_t Best = 0, I = Pos;
  while (I < Input.size() && Cur != Arena.empty()) {
    Cur = Arena.derive(Cur, static_cast<unsigned char>(Input[I]));
    ++I;
    if (Arena.nullable(Cur))
      Best = I - Pos;
  }
  return Best;
}

} // namespace

Result<Value> flap::parseFusedInterp(RegexArena &Arena,
                                     const FusedGrammar &F,
                                     const ActionTable &Actions,
                                     std::string_view Input, void *User,
                                     NtId Entry, const TokenSet *Tokens) {
  ParseContext Ctx{Input, User, 0, nullptr};
  ValueStack Values;
  std::vector<Sym> Stack;
  Stack.push_back(Sym::nt(Entry == NoNt ? F.Start : Entry));
  size_t Pos = 0;
  const size_t Len = Input.size();
  const Action *Acts = Actions.data();

  while (!Stack.empty()) {
    Sym S = Stack.back();
    Stack.pop_back();
    if (!S.isNt()) {
      Values.apply(Acts[S.Idx], Ctx);
      continue;
    }
    const FusedNt &Nt = F.Nts[S.Idx];

    // 𝓕(F_n, k, rs, s): run all production regexes in lockstep via
    // derivatives, tracking the best (longest) match and which
    // continuation it selects.
    std::vector<RegexId> Live(Nt.Prods.size());
    for (size_t P = 0; P < Nt.Prods.size(); ++P)
      Live[P] = Nt.Prods[P].Re;
    int Best = -1; // `no` / `back` handled below via Nt.HasEps
    size_t BestEnd = Pos;
    size_t I = Pos;
    while (I < Len) {
      unsigned char C = static_cast<unsigned char>(Input[I]);
      bool AnyLive = false;
      int Accepting = -1;
      for (size_t P = 0; P < Live.size(); ++P) {
        if (Live[P] == Arena.empty())
          continue;
        Live[P] = Arena.derive(Live[P], C);
        if (Live[P] == Arena.empty())
          continue;
        AnyLive = true;
        if (Arena.nullable(Live[P])) {
          // Production regexes of one nonterminal are disjoint
          // (canonicalized lexer), so the accepting rule is unique.
          assert(Accepting < 0 && "fused production regexes overlap");
          Accepting = static_cast<int>(P);
        }
      }
      if (!AnyLive)
        break;
      ++I;
      if (Accepting >= 0) {
        Best = Accepting;
        BestEnd = I;
      }
    }

    // Step(k, rs).
    if (Best >= 0) {
      const FusedProd &P = Nt.Prods[Best];
      if (!P.isSkip())
        Values.push(Value::token(P.FromTok, static_cast<uint32_t>(Pos),
                                 static_cast<uint32_t>(BestEnd)));
      Pos = BestEnd;
      for (size_t T = P.Tail.size(); T-- > 0;)
        Stack.push_back(P.Tail[T]);
      continue;
    }
    if (Nt.HasEps) {
      // back: succeed consuming nothing; run the ε-marker chain as one
      // table-driven block.
      if (Nt.EpsMarkers.empty()) {
        Values.push(Value::unit());
      } else {
        for (const Sym &M : Nt.EpsMarkers)
          Values.apply(Acts[M.Idx], Ctx);
      }
      continue;
    }
    return Err(formatParseErrorAt(
        Pos, Tokens ? Nt.expected(*Tokens) : std::string(), Nt.Name));
  }

  // Absorb trailing skip lexemes (a separate lexer would consume them).
  if (F.SkipRe != NoRegex)
    while (Pos < Len) {
      size_t M = longestMatch(Arena, F.SkipRe, Input, Pos);
      if (M == 0)
        break;
      Pos += M;
    }
  if (Pos != Len)
    return Err(formatTrailingAt(Pos));

  return Values.collect();
}
