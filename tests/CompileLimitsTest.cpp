//===- tests/CompileLimitsTest.cpp - Packed-width and table-width limits ------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The staged machine packs an NtId into 15 bits and a scan start state
/// into 16 (CompiledParser::packNt), stores state ids as int16 in the
/// hot table, and selects the uint8 table only while state ids leave the
/// Dead8 sentinel (0xff) free. Grammars exceeding any width must fail
/// *gracefully* in compileFused — a silent wrap would corrupt every
/// packed symbol — and the 8-bit/16-bit cutoff must sit exactly at 255
/// states (a 256-state machine would alias state id 255 with Dead8).
///
//===----------------------------------------------------------------------===//

#include "engine/Compile.h"
#include "regex/Regex.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

/// A fused grammar with one nonterminal whose productions are the given
/// literal regexes (distinct first bytes, no shared derivative chains).
FusedGrammar literalGrammar(RegexArena &Arena,
                            const std::vector<std::string> &Literals) {
  FusedGrammar F;
  F.Start = 0;
  F.Nts.resize(1);
  F.Nts[0].Name = "root";
  for (size_t K = 0; K < Literals.size(); ++K) {
    FusedProd P;
    P.Re = Arena.literal(Literals[K]);
    P.FromTok = static_cast<TokenId>(K);
    F.Nts[0].Prods.push_back(std::move(P));
  }
  return F;
}

TEST(CompileLimitsTest, NtCountExceedingPackedWidthFailsGracefully) {
  // packNt holds an NtId in 15 bits: 0x8000 nonterminals is one too
  // many. The guard must fire before any staging work happens.
  RegexArena Arena;
  ActionTable Actions;
  FusedGrammar F;
  F.Start = 0;
  F.Nts.resize(CompiledParser::MaxPackedNts + 1);
  Result<CompiledParser> M = compileFused(Arena, F, Actions);
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.error().find("nonterminals"), std::string::npos) << M.error();
  EXPECT_NE(M.error().find("15 bits"), std::string::npos) << M.error();
}

TEST(CompileLimitsTest, NtCountAtPackedWidthIsAccepted) {
  // Exactly MaxPackedNts nonterminals still packs: ids 0..0x7ffe.
  // (All but the start nonterminal are unreachable and trivially empty —
  // the guard is about widths, not usefulness.)
  RegexArena Arena;
  ActionTable Actions;
  FusedGrammar F = literalGrammar(Arena, {"ok"});
  F.Nts.resize(CompiledParser::MaxPackedNts);
  Result<CompiledParser> M = compileFused(Arena, F, Actions);
  ASSERT_TRUE(M.ok()) << M.error();
  ParseScratch Scr;
  EXPECT_TRUE(M->parse("ok", Scr).ok());
}

TEST(CompileLimitsTest, StateCountExceedingInt16FailsGracefully) {
  // Drive the state count past MaxPackedStates (32768) with a MaxStates
  // bound far above it: 52 literal productions of 700 bytes each give
  // ~36400 distinct derivative states. The width guard must fire even
  // though the caller's bound allows the specialization.
  RegexArena Arena;
  ActionTable Actions;
  std::vector<std::string> Literals;
  for (char C = 'a'; C <= 'z'; ++C)
    Literals.push_back(std::string(700, C));
  for (char C = 'A'; C <= 'Z'; ++C)
    Literals.push_back(std::string(700, C));
  FusedGrammar F = literalGrammar(Arena, Literals);
  Result<CompiledParser> M =
      compileFused(Arena, F, Actions, /*MaxStates=*/size_t(1) << 17);
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.error().find("16-bit"), std::string::npos) << M.error();
}

TEST(CompileLimitsTest, MaxStatesBoundStillReportsItsOwnError) {
  // A caller bound below the width cap keeps its original diagnostic.
  RegexArena Arena;
  ActionTable Actions;
  FusedGrammar F = literalGrammar(Arena, {std::string(64, 'a')});
  Result<CompiledParser> M = compileFused(Arena, F, Actions, /*MaxStates=*/8);
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.error().find("exceeds 8 states"), std::string::npos)
      << M.error();
}

/// Compiles a single-literal machine with exactly \p NumStates states
/// (a literal of length L stages to L+1 states: one per suffix).
Result<CompiledParser> machineWithStates(RegexArena &Arena,
                                         const ActionTable &Actions,
                                         size_t NumStates,
                                         std::string &Input) {
  Input.assign(NumStates - 1, 'a');
  FusedGrammar F = literalGrammar(Arena, {Input});
  return compileFused(Arena, F, Actions, /*MaxStates=*/size_t(1) << 12);
}

TEST(CompileLimitsTest, Trans8CutoffIsExactlyAtDead8Boundary) {
  ActionTable Actions;

  // 255 states: max id 254, sentinel 0xff free — the uint8 table must be
  // selected and the deepest state must still be reachable and correct.
  {
    RegexArena Arena;
    std::string Input;
    Result<CompiledParser> M = machineWithStates(Arena, Actions, 255, Input);
    ASSERT_TRUE(M.ok()) << M.error();
    ASSERT_EQ(M->numStates(), 255);
    EXPECT_FALSE(M->Trans8.empty())
        << "255-state machine should select the uint8 table";
    // Every non-dead cell must stay clear of the Dead8 sentinel.
    for (uint8_t Cell : M->Trans8)
      if (Cell != CompiledParser::Dead8)
        EXPECT_LT(Cell, 255);
    ParseScratch Scr;
    EXPECT_TRUE(M->parse(Input, Scr).ok());
    EXPECT_TRUE(M->recognize(Input, Scr));
    EXPECT_FALSE(M->parse(Input + "a", Scr).ok()); // one byte past the literal
    EXPECT_FALSE(M->parse(Input.substr(1), Scr).ok());

    // The 16-bit kernel over the same machine agrees byte-for-byte.
    CompiledParser Wide = *M;
    Wide.Trans8.clear();
    Result<Value> A = M->parse(Input, Scr), B = Wide.parse(Input, Scr);
    ASSERT_TRUE(A.ok() && B.ok());
    EXPECT_EQ(*A, *B);
  }

  // 256 states: state id 255 would alias Dead8 — the uint8 table must
  // NOT be selected, and the int16 kernel must carry the machine.
  {
    RegexArena Arena;
    std::string Input;
    Result<CompiledParser> M = machineWithStates(Arena, Actions, 256, Input);
    ASSERT_TRUE(M.ok()) << M.error();
    ASSERT_EQ(M->numStates(), 256);
    EXPECT_TRUE(M->Trans8.empty())
        << "256-state machine would alias state id 255 with Dead8";
    ParseScratch Scr;
    EXPECT_TRUE(M->parse(Input, Scr).ok());
    EXPECT_TRUE(M->recognize(Input, Scr));
    EXPECT_FALSE(M->parse(Input + "a", Scr).ok());
  }
}

} // namespace
