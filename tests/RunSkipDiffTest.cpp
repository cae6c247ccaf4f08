//===- tests/RunSkipDiffTest.cpp - Kernel differential fuzzing ----------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The accelerated execution tier (run-skip bulk skipping, fused
/// accept/transition encoding, table-width templated kernels, the
/// allocation-free residual loop) must be observationally invisible:
/// both kernels — scan8 and scan16 — must produce byte-identical
/// accept/reject decisions, `Value` trees and error strings against the
/// Fig. 9 fused interpreter, the unstaged executable specification.
/// Inputs deliberately straddle the skip kernels' 8-byte word and
/// 16-byte SIMD block widths.
///
//===----------------------------------------------------------------------===//

#include "engine/Compile.h"
#include "engine/FusedInterp.h"
#include "engine/Pipeline.h"
#include "engine/RunSkip.h"
#include "grammars/Grammars.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include "ScanWidth.h"

#include <gtest/gtest.h>

using namespace flap;

namespace {

/// Machines under differential test for one grammar: the 8-bit kernel
/// and the machine with Trans8 widened into Trans16 (forcing the 16-bit
/// kernel).
struct Rig {
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;
  CompiledParser Wide; ///< copy with Trans8 widened → scan16 path
  ParseScratch Scratch;

  explicit Rig(std::shared_ptr<GrammarDef> D) : Def(std::move(D)) {
    auto R = compileFlap(Def);
    if (!R.ok()) {
      ADD_FAILURE() << "compile failed: " << R.error();
      return;
    }
    P = R.take();
    Wide = P.M;
    forceTrans16(Wide.Scan);
  }

  void *fresh(std::shared_ptr<void> &C) {
    if (Def->NewCtx)
      C = Def->NewCtx();
    return C.get();
  }

  /// Runs both kernels and the spec on \p In; asserts agreement of
  /// verdict, semantic value and error string. Returns the accelerated
  /// machine's verdict.
  bool check(std::string_view In) {
    std::shared_ptr<void> C1, C2, C3;
    Result<Value> Narrow = P.M.parse(In, Scratch, fresh(C1));
    Result<Value> Wide16 = Wide.parse(In, Scratch, fresh(C2));
    Result<Value> Spec = parseFusedInterp(*Def->Re, P.F, Def->L->Actions, In,
                                          fresh(C3), NoNt, Def->Toks.get());

    EXPECT_EQ(Narrow.ok(), Spec.ok())
        << Def->Name << ": staged vs interpreter on '" << In << "'";
    EXPECT_EQ(Narrow.ok(), Wide16.ok())
        << Def->Name << ": scan8 vs scan16 on '" << In << "'";
    if (Narrow.ok() && Spec.ok() && Wide16.ok()) {
      EXPECT_EQ(*Narrow, *Spec) << Def->Name << " value vs spec";
      EXPECT_EQ(*Narrow, *Wide16) << Def->Name << " value vs scan16";
    }
    // Diagnostics must not drift either: both kernels report the spec's
    // absolute offsets and expected-token sets, byte for byte (the
    // streaming parser is pinned to these same strings by
    // tests/StreamDiffTest.cpp).
    if (!Narrow.ok() && !Spec.ok())
      EXPECT_EQ(Narrow.error(), Spec.error())
          << Def->Name << ": staged vs spec diagnostics on '" << In << "'";
    if (!Narrow.ok() && !Wide16.ok())
      EXPECT_EQ(Narrow.error(), Wide16.error())
          << Def->Name << ": scan8 vs scan16 diagnostics on '" << In << "'";
    bool Rec = P.M.recognize(In, Scratch);
    EXPECT_EQ(Rec, Narrow.ok()) << Def->Name << ": recognize vs parse";
    EXPECT_EQ(Wide.recognize(In, Scratch), Rec)
        << Def->Name << ": scan16 recognize vs scan8";
    return Narrow.ok();
  }
};

TEST(RunSkipDiffTest, SkipRunMatchesNaiveLoop) {
  // The kernel contract, on every block-width boundary and with the
  // stop byte at every offset.
  SkipSet S;
  for (unsigned char C : std::string_view("abcxyz0123456789 \t\n"))
    S.set(C);
  S.finalize();
  Rng R(7);
  for (int Len = 0; Len <= 70; ++Len) {
    for (int Stop = 0; Stop <= Len; ++Stop) {
      std::string In;
      for (int I = 0; I < Len; ++I)
        In += (I == Stop) ? '!' : "a0 z9\t"[R.below(6)];
      for (size_t From = 0; From < 2u && From <= In.size(); ++From) {
        size_t Naive = From;
        while (Naive < In.size() &&
               S.test(static_cast<unsigned char>(In[Naive])))
          ++Naive;
        EXPECT_EQ(skipRun(S, In.data(), From, In.size()), Naive)
            << "len=" << Len << " stop=" << Stop << " from=" << From;
      }
    }
  }
}

TEST(RunSkipDiffTest, SkipSetRangeDecomposition) {
  SkipSet Digits;
  for (unsigned char C = '0'; C <= '9'; ++C)
    Digits.set(C);
  Digits.finalize();
  EXPECT_EQ(Digits.NumRanges, 1);
  EXPECT_EQ(Digits.Lo[0], '0');
  EXPECT_EQ(Digits.Hi[0], '9');

  // A maximally fragmented set must fall back to the bitmap kernel.
  SkipSet Odd;
  for (int C = 1; C < 40; C += 2)
    Odd.set(static_cast<unsigned char>(C));
  Odd.finalize();
  EXPECT_EQ(Odd.NumRanges, 0);
  EXPECT_FALSE(Odd.empty());
}

TEST(RunSkipDiffTest, RunsStraddlingBlockWidths) {
  // Atom and whitespace runs of every length around the 8-byte word and
  // 16-byte SIMD boundaries, scanned by every kernel.
  Rig R(makeSexpGrammar());
  for (int L = 1; L <= 40; ++L) {
    std::string Atom(L, 'a');
    std::string Ws(L, ' ');
    R.check("(" + Atom + ")");
    R.check("(" + Ws + Atom + Ws + ")");
    R.check(Atom);
    R.check("(" + Atom + " " + Atom + ")");
    // Run ending exactly at end-of-input, and input ending mid-run.
    R.check(Atom + Ws);
    R.check("(" + Atom); // reject: unclosed
  }
}

TEST(RunSkipDiffTest, JsonStringAndNumberRuns) {
  Rig R(makeJsonGrammar());
  for (int L = 1; L <= 40; ++L) {
    std::string Key(L, 'k');
    std::string Num(L, '7');
    R.check("{\"" + Key + "\": 1}");
    R.check("[" + Num + "]");
    R.check("[-" + Num + "." + Num + "]");
    R.check("[\"" + std::string(L, ' ') + "\"]"); // spaces inside a string
  }
}

TEST(RunSkipDiffTest, EofInsideSkipAttemptStillFindsTokenMatch) {
  // Adversarial lexer: the skip regex continues past its accept with a
  // byte that also starts a token (" (-!)?" vs dash "-"). Ending the
  // input inside the speculative skip attempt ("x -") forces the scan
  // to rescan the suffix after the committed whitespace — the in-place
  // F2 rescan must behave identically at end-of-input and on a dead
  // transition.
  auto Def = std::make_shared<GrammarDef>("skipdash");
  Lang &L = *Def->L;
  TokenId Atom = Def->Lexer->rule("[a-z]+", "atom");
  TokenId Dash = Def->Lexer->rule("-", "dash");
  Def->Lexer->skip(" (-!)?");
  Def->Root = L.map(
      L.seq(L.tok(Atom), L.alt(L.eps(), L.tok(Dash))),
      [](ParseContext &, Value *) { return Value::unit(); }, "ignore");
  Rig R(Def);
  EXPECT_TRUE(R.check("x -"));  // EOF inside " -!" attempt; dash matches
  EXPECT_TRUE(R.check("x -!")); // whole " -!" is whitespace; eps branch
  EXPECT_TRUE(R.check("x "));   // EOF exactly at the whitespace accept
  EXPECT_TRUE(R.check("x- "));
  R.check("x -! -");            // ws, then EOF inside a second attempt
  R.check("x !");               // reject identically everywhere
}

TEST(RunSkipDiffTest, DispatchTierInvariantsHoldOnEveryMachine) {
  // The first-byte dispatch tables are the transition rows under the
  // dispatch-tier id encoding; the fast paths are sound only if every
  // state's id range matches its accept kind and outgoing shape. Pin the
  // encoding structurally for every benchmark machine.
  for (auto &Def : allBenchmarkGrammars()) {
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok()) << P.error();
    const CompiledParser &M = P->M;
    ASSERT_LE(0, M.Scan.Tiers.PureSkip);
    ASSERT_LE(M.Scan.Tiers.PureSkip, M.Scan.Tiers.SelfSkip);
    ASSERT_LE(M.Scan.Tiers.SelfSkip, M.Scan.Tiers.TermAcc);
    ASSERT_LE(M.Scan.Tiers.TermAcc, M.Scan.Tiers.PureAcc);
    ASSERT_LE(M.Scan.Tiers.PureAcc, M.Scan.Tiers.Accept);
    ASSERT_LE(M.Scan.Tiers.Accept, M.numStates());
    for (int32_t S = 0; S < M.numStates(); ++S) {
      bool Any = false, Other = false;
      for (int C = 0; C < 256; ++C) {
        int32_t D = M.Scan.next(S, C);
        if (D < 0)
          continue;
        Any = true;
        Other |= D != S;
      }
      int32_t A = M.AcceptCont[S];
      bool SelfSkip = A >= 0 && M.Conts[A].SelfSkip;
      SCOPED_TRACE(Def->Name + " state " + std::to_string(S));
      EXPECT_EQ(A >= 0, S < M.Scan.Tiers.Accept);
      EXPECT_EQ(SelfSkip, S < M.Scan.Tiers.SelfSkip);
      if (S < M.Scan.Tiers.PureSkip)
        EXPECT_FALSE(Other); // pure self-skip run: outgoing ⊆ self-loop
      else if (S < M.Scan.Tiers.SelfSkip)
        EXPECT_TRUE(Other);
      else if (S < M.Scan.Tiers.TermAcc)
        EXPECT_FALSE(Any); // terminal accept: no outgoing at all
      else if (S < M.Scan.Tiers.PureAcc) {
        EXPECT_TRUE(Any); // pure accepting run: nonempty self-loop only
        EXPECT_FALSE(Other);
      } else if (S < M.Scan.Tiers.Accept)
        EXPECT_TRUE(Other);
      // Skip metadata agrees with the self-loop row.
      for (int C = 0; C < 256; ++C)
        EXPECT_EQ(M.Scan.Skip[S].test(static_cast<unsigned char>(C)),
                  M.Scan.next(S, C) == S)
            << "byte " << C;
    }
  }
}

TEST(RunSkipDiffTest, StructuralTokenDenseInputs) {
  // json's structural bytes are terminal-accepting: the lexeme is
  // decided by the first-byte dispatch load alone. Hammer the dispatch
  // path with lexemes that are all one byte, with and without
  // whitespace between them, and with truncations ending exactly on a
  // dispatch byte.
  Rig R(makeJsonGrammar());
  R.check("[]");
  R.check("{}");
  R.check("[[[[[[[[]]]]]]]]");
  R.check("[[],[],[],[]]");
  R.check("[1,2,3,4,5,6,7,8,9]");
  R.check("{\"a\":{},\"b\":[{},{}]}");
  R.check("[ [ ] , [ ] ]");
  R.check("[true,false,null]");
  for (int N = 1; N <= 24; ++N) {
    std::string In = "[";
    for (int I = 0; I < N; ++I)
      In += I % 2 ? std::string("{},") : std::string("[],");
    In += "0]";
    R.check(In);
    R.check(In.substr(0, In.size() - 1)); // reject: cut on a terminal
  }
}

TEST(RunSkipDiffTest, TerminalVsLongerTokenClassification) {
  // A token that is a strict prefix of another ("a" / "ab" / "abc"):
  // the state after 'a' accepts *with* outgoing transitions, so it must
  // not be classified terminal — ending the input there must still
  // produce the shorter match everywhere. The "num" rule adds a pure
  // accepting run alongside.
  auto Def = std::make_shared<GrammarDef>("prefixy");
  Lang &L = *Def->L;
  TokenId A = Def->Lexer->rule("a", "a");
  TokenId Ab = Def->Lexer->rule("ab", "ab");
  TokenId Abc = Def->Lexer->rule("abc", "abc");
  TokenId Num = Def->Lexer->rule("[0-9]+", "num");
  Def->Lexer->skip("[ ]");
  Px Tok = L.alt(L.alt(L.tok(A), L.tok(Ab)), L.alt(L.tok(Abc), L.tok(Num)));
  Def->Root = L.mapConst(L.seq(Tok, L.alt(Tok, L.eps())), Value::integer(1),
                         "one");
  Rig R(Def);
  for (const char *In :
       {"a", "ab", "abc", "a a", "ab a", "abc ab", "a 1", "ab 12",
        "abc 123", "1 a", "12 ab", "123 abc", "a ab", "abcd", "abca",
        "a  b", "ab abc", "1", "12", "a b"})
    R.check(In);
  // Truncation of every prefix: end-of-input inside the a/ab/abc chain.
  for (size_t Cut = 0; Cut <= 7; ++Cut)
    R.check(std::string("abc abc").substr(0, Cut));
}

TEST(RunSkipDiffTest, AllGrammarsOnGeneratedCorpora) {
  for (auto &Def : allBenchmarkGrammars()) {
    Rig R(Def);
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      Workload W = genWorkload(Def->Name, Seed, 4000 + Seed * 3000);
      EXPECT_TRUE(R.check(W.Input)) << Def->Name << " seed " << Seed;
    }
  }
}

TEST(RunSkipDiffTest, MutationFuzz) {
  // Random byte edits: every kernel must still agree, accept or reject.
  Rng Rand(42);
  for (auto &Def : allBenchmarkGrammars()) {
    Rig R(Def);
    Workload W = genWorkload(Def->Name, 9, 3000);
    for (int Round = 0; Round < 60; ++Round) {
      std::string In = W.Input;
      int Edits = 1 + static_cast<int>(Rand.below(3));
      for (int E = 0; E < Edits; ++E) {
        size_t At = Rand.below(In.size());
        switch (Rand.below(3)) {
        case 0:
          In[At] = static_cast<char>(Rand.below(128));
          break;
        case 1:
          In.erase(At, 1 + Rand.below(4));
          break;
        default:
          In.insert(At, 1 + Rand.below(3),
                    "(){}[]\", \n0a"[Rand.below(12)]);
          break;
        }
        if (In.empty())
          In = "x";
      }
      R.check(In);
    }
  }
}

TEST(RunSkipDiffTest, TruncationSweep) {
  // Every prefix boundary near the start and end of a small corpus —
  // exercises end-of-input inside runs, inside lexemes, and inside
  // trailing whitespace.
  for (auto &Def : allBenchmarkGrammars()) {
    Rig R(Def);
    Workload W = genWorkload(Def->Name, 5, 600);
    size_t N = W.Input.size();
    for (size_t Cut = 0; Cut <= N; Cut += (Cut < 40 || N - Cut < 40) ? 1 : 13)
      R.check(std::string_view(W.Input).substr(0, Cut));
  }
}

} // namespace
