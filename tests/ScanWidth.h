//===- tests/ScanWidth.h - Fixtures for the two scan-table widths -*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// A machine stores its transition function in one width: Trans8 up to
/// ScanTables::MaxSmallStates states, Trans16 above. The tests that
/// drive or audit both widths share these fixtures: a widened copy of a
/// stored Trans8 (to force the 16-bit kernel on a small machine, or to
/// forge a second copy for the verifier to refuse), a grammar whose
/// staged machine and lexer DFA both pass 255 states, and the friend
/// that reaches a CompiledLexer's private tables.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_TESTS_SCANWIDTH_H
#define FLAP_TESTS_SCANWIDTH_H

#include "engine/DispatchTier.h"
#include "engine/Pipeline.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace flap {

/// Friend of CompiledLexer: mutable references into the private DFA
/// tables (declared in lexer/CompiledLexer.h).
class LexerTestPeer {
public:
  static ScanTables &scan(CompiledLexer &L) { return L.Scan; }
  static const ScanTables &scan(const CompiledLexer &L) { return L.Scan; }
  static Table<int32_t> &accept(CompiledLexer &L) { return L.Accept; }
  static Table<TokenId> &toks(CompiledLexer &L) { return L.Toks; }
  static int32_t &start(CompiledLexer &L) { return L.Start; }
};

/// The function \p T stores, in the 16-bit encoding (dead = -1).
inline Table<int16_t> widened(const ScanTables &T) {
  Table<int16_t> W;
  W.resize(T.Skip.size() * 256);
  for (size_t I = 0; I < W.size(); ++I)
    W[I] = static_cast<int16_t>(T.next(I / 256, I % 256));
  return W;
}

/// Rewrites \p T to run the 16-bit kernel: Trans8 widened into Trans16.
inline void forceTrans16(ScanTables &T) {
  T.Trans16 = widened(T);
  T.Trans8.clear();
}

/// A grammar of 80 distinct 12-byte keywords, space-separated, counted
/// by its action: its staged machine and its lexer DFA both pass 255
/// states, so both store Trans16. \p Words receives the keywords.
inline std::shared_ptr<GrammarDef>
makeBigMachineGrammar(std::vector<std::string> &Words) {
  auto Def = std::make_shared<GrammarDef>("big");
  Lang &L = *Def->L;
  std::vector<TokenId> Kws;
  Words.clear();
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
  return Def;
}

} // namespace flap

#endif // FLAP_TESTS_SCANWIDTH_H
