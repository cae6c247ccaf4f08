//===- core/Fuse.cpp - Lexer-parser fusion (Fig. 6) ---------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "core/Fuse.h"

#include "support/StrUtil.h"

using namespace flap;

Result<FusedGrammar> flap::fuse(RegexArena &Arena,
                                const CanonicalLexer &Lexer,
                                const Grammar &G, const TokenSet &Tokens) {
  FusedGrammar Out;
  Out.Start = G.Start;
  Out.SkipRe = Lexer.SkipRe;
  Out.Nts.resize(G.numNts());

  bool HaveSkip = Lexer.SkipRe != NoRegex && Lexer.SkipRe != Arena.empty();

  for (NtId N = 0; N < G.numNts(); ++N) {
    FusedNt &F = Out.Nts[N];
    F.Name = G.Names[N];
    RegexId Union = Arena.empty();

    // F1: inline the lexer. Rules returning tokens that head no
    // production of this nonterminal are implicitly discarded — the
    // specialization of §2.7 step (1).
    for (const Production &P : G.Prods[N]) {
      if (P.isVar())
        return Err(format("cannot fuse: '%s' still contains the internal "
                          "variable form",
                          G.Names[N].c_str()));
      if (P.isEps()) {
        F.HasEps = true;
        F.EpsMarkers = P.Tail;
        continue;
      }
      RegexId Re = Lexer.tokenRegex(Arena, P.Tok);
      if (Re == Arena.empty())
        return Err(format("cannot fuse: grammar uses token '%s' but no "
                          "lexer rule returns it",
                          Tokens.name(P.Tok).c_str()));
      F.Prods.push_back({Re, P.Tail, P.Tok});
      Union = Arena.alt(Union, Re);
    }

    // F2: the whitespace production n → r_skip n, letting every
    // nonterminal absorb any number of skipped lexemes.
    if (HaveSkip) {
      F.Prods.push_back({Lexer.SkipRe, {Sym::nt(N)}, NoToken});
      Union = Arena.alt(Union, Lexer.SkipRe);
    }

    // F3: the ε-production becomes a lookahead rule over the complement
    // of the other productions' regexes.
    if (F.HasEps)
      F.Lookahead = Arena.not_(Union);
  }
  return Out;
}

std::string FusedNt::expected(const TokenSet &Tokens) const {
  std::string Out;
  for (const FusedProd &P : Prods) {
    if (P.isSkip())
      continue;
    if (!Out.empty())
      Out += ", ";
    Out += Tokens.name(P.FromTok);
  }
  return Out;
}

std::string FusedGrammar::str(RegexArena &Arena,
                              const ActionTable *Actions) const {
  std::vector<std::string> Lines;
  for (const FusedNt &F : Nts) {
    for (const FusedProd &P : F.Prods) {
      std::string Line = F.Name + " ::= " + Arena.str(P.Re);
      for (const Sym &S : P.Tail) {
        if (S.isNt())
          Line += " " + Nts[S.Idx].Name;
        else if (Actions)
          Line +=
              " @" + Actions->get(static_cast<ActionId>(S.Idx)).Name;
      }
      if (P.isSkip())
        Line += "   (skip)";
      Lines.push_back(Line);
    }
    if (F.HasEps)
      Lines.push_back(F.Name + " ::= ?" + Arena.str(F.Lookahead));
  }
  return join(Lines, "\n");
}
