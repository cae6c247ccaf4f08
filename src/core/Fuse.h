//===- core/Fuse.h - Lexer-parser fusion (Fig. 6) --------------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lexer–parser fusion F⟦L,G⟧ (paper Fig. 6). The fused grammar
///
///   F ::= { n → r n̄ } ∪ { n → ?r }
///
/// is token-free: each DGNF production's terminal is replaced by the
/// canonical regex of the lexer rule returning it (F1, which implicitly
/// specializes the lexer to each nonterminal by dropping rules for
/// unmatchable tokens); every nonterminal gains a production for the Skip
/// regex that re-enters itself (F2); and every ε-production becomes a
/// lookahead rule ?¬(r1|...|rk) over the other productions' regexes (F3).
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_CORE_FUSE_H
#define FLAP_CORE_FUSE_H

#include "core/Grammar.h"
#include "lexer/LexerSpec.h"
#include "support/Result.h"

#include <string>
#include <vector>

namespace flap {

/// One fused production n → r n̄.
struct FusedProd {
  RegexId Re = NoRegex;
  std::vector<Sym> Tail;
  /// Provenance: the token whose lexer rule was inlined, or NoToken for
  /// the F2 skip production. Engines push a token value for Return
  /// provenance and nothing for Skip.
  TokenId FromTok = NoToken;

  bool isSkip() const { return FromTok == NoToken; }
};

/// All fused rules of one nonterminal.
struct FusedNt {
  std::vector<FusedProd> Prods;
  /// F3: present when the source nonterminal had an ε-production.
  bool HasEps = false;
  /// Markers of the ε-production (run when the lookahead branch wins).
  std::vector<Sym> EpsMarkers;
  /// The materialized lookahead regex ?¬(∨ r): not consulted by the
  /// machines (they fall back when no production matches, which is the
  /// same thing — verified equivalent by tests), but part of the formal
  /// fused grammar.
  RegexId Lookahead = NoRegex;
  std::string Name;

  /// The tokens a parse of this nonterminal can start with, e.g.
  /// "rpar, atom": the expected-set text of its parse diagnostics
  /// (CompiledParser::NtExpected, parseFusedInterp).
  std::string expected(const TokenSet &Tokens) const;
};

/// A fused grammar: token-free, branching only on characters.
struct FusedGrammar {
  NtId Start = NoNt;
  std::vector<FusedNt> Nts;
  RegexId SkipRe = NoRegex;

  size_t numNts() const { return Nts.size(); }

  /// Production count as reported in Table 1's "Fused Prods" column:
  /// F1 + F2 + F3 rules.
  size_t numProductions() const {
    size_t N = 0;
    for (const FusedNt &F : Nts)
      N += F.Prods.size() + (F.HasEps ? 1 : 0);
    return N;
  }

  /// Renders as e.g. `sexp ::= ( sexps rpar | [a-z][a-z]* | [ \n] sexp`.
  std::string str(RegexArena &Arena,
                  const ActionTable *Actions = nullptr) const;
};

/// Fuses a canonicalized lexer with a DGNF grammar. Fails when the
/// grammar uses a token for which the lexer has no Return rule.
Result<FusedGrammar> fuse(RegexArena &Arena, const CanonicalLexer &Lexer,
                          const Grammar &G, const TokenSet &Tokens);

} // namespace flap

#endif // FLAP_CORE_FUSE_H
