//===- tests/VerifyTest.cpp - Mutation suite for the table verifier ----------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The verifier's contract is negative: engine/Verify.h must flag a
/// corrupted table *before* the hot loops ever see it. This suite
/// injects single-field corruptions — one mutated copy per field class,
/// over every benchmark grammar and one >255-state grammar, whose
/// machines store the 16-bit table — and requires the verifier to report
/// an Error or Warning for at least 95% of the applied mutations. The
/// misses that remain must be harmless in the strongest sense we can
/// test: any mutated table the verifier passes is fed to the engine,
/// which must complete a recognize, a values and an events request
/// without crashing.
///
/// Every mutation flips exactly one field (one table entry, one bound,
/// one bit, one claim), modelling a staging bug or a bit-rot of a
/// serialized artifact — not adversarial multi-field forgeries, which
/// can always re-fake the redundant encodings wholesale.
///
//===----------------------------------------------------------------------===//

#include "engine/Verify.h"

#include "engine/Artifact.h"
#include "engine/Compile.h"
#include "engine/Pipeline.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"

#include "ScanWidth.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <sys/mman.h>

using namespace flap;

namespace {

/// An Error or Warning counts as detection; lints are advisory and can
/// legitimately fire on healthy tables.
bool detected(const VerifyReport &R) {
  for (const VerifyFinding &F : R.Findings)
    if (F.Sev != VerifyFinding::Severity::Lint)
      return true;
  return false;
}

/// A known-good input per grammar, used to drive the engine over any
/// mutated table the verifier failed to flag (the zero-crash contract).
std::string sampleInput(const std::string &Name) {
  if (Name == "json")
    return "{\"a\": [1, 2], \"b\": true}";
  if (Name == "sexp")
    return "(a (b c) d)";
  if (Name == "csv")
    return "a,b\r\n1,2\r\n";
  if (Name == "pgn")
    return "[Event \"casual\"]\n[White \"ann\"]\n[Black \"bob\"]\n\n"
           "1. e4 e5 2. Nf3 Nc6 1-0\n\n";
  if (Name == "ppm")
    return "P3\n1 1\n255\n0 1 2\n";
  return "1 + 2 * 3"; // arith
}

struct ParserMutation {
  const char *Name;
  /// Applies the corruption in place; false = not applicable to this
  /// grammar's tables (nothing was changed).
  std::function<bool(CompiledParser &)> Apply;
};

struct LexerMutation {
  const char *Name;
  std::function<bool(CompiledLexer &)> Apply;
};

/// Flips the lowest set bit of a nonempty SkipSet.
bool dropOneBit(SkipSet &S) {
  for (int W = 0; W < 4; ++W)
    if (S.Bits[W]) {
      S.Bits[W] &= S.Bits[W] - 1;
      return true;
    }
  return false;
}

std::vector<ParserMutation> parserMutations() {
  std::vector<ParserMutation> Ms;
  auto Add = [&](const char *Name,
                 std::function<bool(CompiledParser &)> Fn) {
    Ms.push_back({Name, std::move(Fn)});
  };

  // Tier bounds: each ±1 either breaks the monotone chain or moves one
  // state into a tier whose shape it cannot satisfy.
  Add("Tiers.PureSkip+1",
      [](CompiledParser &M) { ++M.Scan.Tiers.PureSkip; return true; });
  Add("Tiers.PureSkip-1", [](CompiledParser &M) {
    if (M.Scan.Tiers.PureSkip == 0)
      return false;
    --M.Scan.Tiers.PureSkip;
    return true;
  });
  Add("Tiers.SelfSkip+1",
      [](CompiledParser &M) { ++M.Scan.Tiers.SelfSkip; return true; });
  Add("Tiers.SelfSkip-1", [](CompiledParser &M) {
    if (M.Scan.Tiers.SelfSkip == 0)
      return false;
    --M.Scan.Tiers.SelfSkip;
    return true;
  });
  Add("Tiers.TermAcc+1",
      [](CompiledParser &M) { ++M.Scan.Tiers.TermAcc; return true; });
  Add("Tiers.TermAcc-1", [](CompiledParser &M) {
    if (M.Scan.Tiers.TermAcc == 0)
      return false;
    --M.Scan.Tiers.TermAcc;
    return true;
  });
  Add("Tiers.PureAcc+1",
      [](CompiledParser &M) { ++M.Scan.Tiers.PureAcc; return true; });
  Add("Tiers.Accept+1",
      [](CompiledParser &M) { ++M.Scan.Tiers.Accept; return true; });
  Add("Tiers.Accept-1", [](CompiledParser &M) {
    if (M.Scan.Tiers.Accept == 0)
      return false;
    --M.Scan.Tiers.Accept;
    return true;
  });

  // Transition table, in the one width the machine stores (Trans16
  // mutations apply to the >255-state machine only): a flipped cell
  // changes its state's shape (tier), self-loop bytes (skip set) or
  // reachability (ownership); an out-of-range cell fails the range
  // check.
  Add("Trans16 flip", [](CompiledParser &M) {
    if (M.Scan.Trans16.empty())
      return false;
    M.Scan.Trans16[0] =
        M.Scan.Trans16[0] == CompiledParser::Dead ? 0 : CompiledParser::Dead;
    return true;
  });
  Add("Trans16 out-of-range", [](CompiledParser &M) {
    if (M.Scan.Trans16.empty())
      return false;
    M.Scan.Trans16[0] = static_cast<int16_t>(M.numStates());
    return true;
  });
  Add("Trans8 flip", [](CompiledParser &M) {
    if (M.Scan.Trans8.empty())
      return false;
    M.Scan.Trans8[0] =
        M.Scan.Trans8[0] == ScanTables::Dead8 ? 0 : ScanTables::Dead8;
    return true;
  });
  Add("Trans8 out-of-range", [](CompiledParser &M) {
    if (M.Scan.Trans8.empty() || M.numStates() >= ScanTables::Dead8)
      return false;
    M.Scan.Trans8[0] = static_cast<uint8_t>(M.numStates());
    return true;
  });

  // Accept prefix and metadata words.
  Add("AcceptCont cleared", [](CompiledParser &M) {
    if (M.Scan.Tiers.Accept == 0)
      return false;
    M.AcceptCont[0] = -1;
    return true;
  });
  Add("AccMeta off+1", [](CompiledParser &M) {
    for (int32_t S = 0; S < M.Scan.Tiers.Accept; ++S)
      if (CompiledParser::metaLen(M.AccMeta[S]) > 0) {
        M.AccMeta[S] += 1; // Off lives in the low 32 bits
        return true;
      }
    return false;
  });
  Add("AccMeta len+1", [](CompiledParser &M) {
    if (M.Scan.Tiers.Accept == 0)
      return false;
    M.AccMeta[0] += uint64_t(1) << 32;
    return true;
  });
  Add("AccMeta token elided", [](CompiledParser &M) {
    for (int32_t S = 0; S < M.Scan.Tiers.Accept; ++S)
      if (CompiledParser::metaTok(M.AccMeta[S]) != CompiledParser::MetaNoTok) {
        M.AccMeta[S] |= uint64_t(CompiledParser::MetaNoTok) << 48;
        return true;
      }
    return false;
  });
  Add("AccMeta token flipped", [](CompiledParser &M) {
    for (int32_t S = 0; S < M.Scan.Tiers.Accept; ++S) {
      uint32_t T = CompiledParser::metaTok(M.AccMeta[S]);
      if (T != CompiledParser::MetaNoTok && T + 1 != CompiledParser::MetaNoTok) {
        M.AccMeta[S] += uint64_t(1) << 48;
        return true;
      }
    }
    return false;
  });
  Add("AccMeta token conjured", [](CompiledParser &M) {
    // Un-elide: restore the head token the rewrite removed. The token
    // check passes (it matches PushTok); only the value-flow audit can
    // see the extra push.
    for (int32_t S = 0; S < M.Scan.Tiers.Accept; ++S) {
      TokenId PT = M.Conts[M.AcceptCont[S]].PushTok;
      if (CompiledParser::metaTok(M.AccMeta[S]) == CompiledParser::MetaNoTok &&
          PT != NoToken) {
        M.AccMeta[S] = (M.AccMeta[S] & 0x0000ffffffffffffULL) |
                       (uint64_t(static_cast<uint32_t>(PT)) << 48);
        return true;
      }
    }
    return false;
  });
  Add("AccNtMeta token set", [](CompiledParser &M) {
    if (M.Scan.Tiers.Accept == 0)
      return false;
    M.AccNtMeta[0] &= 0x0000ffffffffffffULL; // MetaNoTok (0xffff) -> 0
    return true;
  });

  // Packed pools and the op pool.
  Add("PackedPool ActBit flip", [](CompiledParser &M) {
    if (M.PackedPool.empty())
      return false;
    M.PackedPool[0] ^= CompiledParser::ActBit;
    return true;
  });
  Add("PackedPool nt swapped", [](CompiledParser &M) {
    if (M.Nts.size() < 2)
      return false;
    for (uint32_t &E : M.PackedPool)
      if (!(E & CompiledParser::ActBit)) {
        NtId N = CompiledParser::packedNt(E);
        E = M.packNt(static_cast<NtId>((N + 1) % M.Nts.size()));
        return true;
      }
    return false;
  });
  Add("NtPool nt swapped", [](CompiledParser &M) {
    if (M.NtPool.empty() || M.Nts.size() < 2)
      return false;
    NtId N = CompiledParser::packedNt(M.NtPool[0]);
    M.NtPool[0] = M.packNt(static_cast<NtId>((N + 1) % M.Nts.size()));
    return true;
  });
  Add("OpPool kind invalid", [](CompiledParser &M) {
    if (M.OpPool.empty())
      return false;
    M.OpPool[0].K = 200;
    return true;
  });
  Add("OpPool kind nop", [](CompiledParser &M) {
    if (M.OpPool.empty())
      return false;
    M.OpPool[0].K = MicroOp::MNop;
    return true;
  });
  Add("OpPool arity+1", [](CompiledParser &M) {
    if (M.OpPool.empty())
      return false;
    ++M.OpPool[0].Arity;
    return true;
  });
  Add("OpPool selector==arity", [](CompiledParser &M) {
    for (MicroOp &Op : M.OpPool)
      switch (Op.K) {
      case MicroOp::MSelect:
      case MicroOp::MAddImm:
      case MicroOp::MTokInt:
      case MicroOp::MAddArgs:
      case MicroOp::MMaxAcc:
        Op.Sel = static_cast<int16_t>(Op.Arity);
        return true;
      default:
        break;
      }
    return false;
  });
  Add("OpPool slow imm+1", [](CompiledParser &M) {
    for (MicroOp &Op : M.OpPool)
      if (Op.K == MicroOp::MSlow) {
        ++Op.Imm;
        return true;
      }
    return false;
  });
  Add("OpActs redirected", [](CompiledParser &M) {
    if (M.Actions->size() < 2)
      return false;
    for (size_t I = 0; I < M.OpPool.size(); ++I)
      if (M.OpPool[I].K == MicroOp::MSlow) {
        M.OpActs[I] = static_cast<ActionId>((M.OpActs[I] + 1) %
                                            M.Actions->size());
        return true;
      }
    return false;
  });

  // ε-chains and their compiled programs.
  Add("EpsChain extended", [](CompiledParser &M) {
    for (std::vector<ActionId> &Ch : M.EpsChains)
      if (!Ch.empty()) {
        Ch.push_back(Ch[0]);
        return true;
      }
    return false;
  });
  Add("EpsChain arity changed, program rebuilt", [](CompiledParser &M) {
    // What an artifact load of a corrupted chain sees: the programs are
    // rebuilt from the chains, so they agree; only the value flow can
    // tell the chain's net from its nonterminal's.
    for (std::vector<ActionId> &Ch : M.EpsChains)
      for (ActionId &A : Ch)
        for (size_t B = 0; B < M.Actions->size(); ++B)
          if (M.Actions->get(static_cast<ActionId>(B)).Arity !=
              M.Actions->get(A).Arity) {
            A = static_cast<ActionId>(B);
            buildEpsPrograms(M, *M.Actions);
            return true;
          }
    return false;
  });
  Add("EpsProgram off+1", [](CompiledParser &M) {
    for (CompiledParser::EpsProgram &P : M.EpsPrograms)
      if (P.K == CompiledParser::EpsProgram::Ops && P.Len > 0) {
        ++P.Off;
        return true;
      }
    return false;
  });
  Add("EpsProgram maxgrow+1", [](CompiledParser &M) {
    if (M.EpsPrograms.empty())
      return false;
    ++M.EpsPrograms[0].MaxGrow;
    return true;
  });
  Add("EpsProgram kind flipped", [](CompiledParser &M) {
    if (M.EpsPrograms.empty())
      return false;
    CompiledParser::EpsProgram &P = M.EpsPrograms[0];
    P.K = P.K == CompiledParser::EpsProgram::Unit
                 ? CompiledParser::EpsProgram::Ops
                 : CompiledParser::EpsProgram::Unit;
    return true;
  });
  Add("EpsOps flipped", [](CompiledParser &M) {
    if (M.EpsOps.empty())
      return false;
    ++M.EpsOps[0];
    return true;
  });

  // Nonterminal directory and claims.
  Add("NtInfo start out-of-range", [](CompiledParser &M) {
    if (M.Nts.empty())
      return false;
    M.Nts[0].StartState = M.numStates();
    return true;
  });
  Add("NtInfo start clash", [](CompiledParser &M) {
    for (size_t A = 0; A < M.Nts.size(); ++A)
      for (size_t B = A + 1; B < M.Nts.size(); ++B)
        if (M.Nts[A].StartState != M.Nts[B].StartState) {
          M.Nts[A].StartState = M.Nts[B].StartState;
          return true;
        }
    return false;
  });
  Add("NtInfo epschain out-of-range", [](CompiledParser &M) {
    if (M.Nts.empty())
      return false;
    M.Nts[0].EpsChain = static_cast<int32_t>(M.EpsChains.size());
    return true;
  });
  Add("ValueFree claimed on start", [](CompiledParser &M) {
    M.Nts[M.Start].ValueFree = true;
    return true;
  });
  Add("ValueFree dropped", [](CompiledParser &M) {
    for (CompiledParser::NtInfo &N : M.Nts)
      if (N.ValueFree) {
        N.ValueFree = false;
        return true;
      }
    return false;
  });
  Add("SkipState clash", [](CompiledParser &M) {
    M.SkipState = M.Nts[M.Start].StartState;
    return true;
  });

  // Skip sets (every state's set is checked for self-loop exactness).
  Add("Skip bit dropped", [](CompiledParser &M) {
    for (SkipSet &S : M.Scan.Skip)
      if (dropOneBit(S))
        return true;
    return false;
  });
  Add("Skip range corrupted", [](CompiledParser &M) {
    for (SkipSet &S : M.Scan.Skip)
      if (S.NumRanges > 0) {
        ++S.Lo[0];
        return true;
      }
    return false;
  });

  // Continuations.
  Add("Cont tailoff out-of-range", [](CompiledParser &M) {
    for (CompiledParser::Cont &K : M.Conts)
      if (K.TailLen > 0) {
        K.TailOff = static_cast<uint32_t>(M.TailPool.size());
        return true;
      }
    return false;
  });
  Add("Cont taillen+1", [](CompiledParser &M) {
    if (M.Conts.empty())
      return false;
    ++M.Conts[0].TailLen;
    return true;
  });
  Add("Cont pushtok flipped", [](CompiledParser &M) {
    // Only meaningful where an accepting state's metadata still
    // materializes the token: flipping PushTok breaks that agreement.
    for (int32_t S = 0; S < M.Scan.Tiers.Accept; ++S) {
      int32_t A = M.AcceptCont[S];
      if (CompiledParser::metaTok(M.AccMeta[S]) != CompiledParser::MetaNoTok &&
          M.Conts[A].PushTok != NoToken) {
        ++M.Conts[A].PushTok;
        return true;
      }
    }
    return false;
  });

  // Panic-mode sync tables.
  Add("Sync bit added", [](CompiledParser &M) {
    for (CompiledParser::SyncSpec &SS : M.SyncSpecs)
      if (SS.HasSync) {
        for (int B = 0; B < 256; ++B)
          if (!SS.Sync.test(static_cast<unsigned char>(B))) {
            SS.Sync.set(static_cast<unsigned char>(B));
            return true;
          }
      }
    return false;
  });
  Add("NotSync bit dropped", [](CompiledParser &M) {
    for (CompiledParser::SyncSpec &SS : M.SyncSpecs)
      if (SS.HasSync && dropOneBit(SS.NotSync))
        return true;
    return false;
  });
  Add("HasSync flipped", [](CompiledParser &M) {
    if (M.SyncSpecs.empty())
      return false;
    M.SyncSpecs[0].HasSync = !M.SyncSpecs[0].HasSync;
    return true;
  });
  Add("Sync range corrupted", [](CompiledParser &M) {
    for (CompiledParser::SyncSpec &SS : M.SyncSpecs)
      if (SS.HasSync && SS.Sync.NumRanges > 0) {
        ++SS.Sync.Lo[0];
        return true;
      }
    return false;
  });
  Add("Sync seq bogus", [](CompiledParser &M) {
    for (CompiledParser::SyncSpec &SS : M.SyncSpecs)
      if (SS.HasSync) {
        SS.Seqs.push_back("ZZZZZ"); // longer than MaxSeqLen
        return true;
      }
    return false;
  });
  Add("SeqOnly stray byte", [](CompiledParser &M) {
    for (CompiledParser::SyncSpec &SS : M.SyncSpecs)
      if (SS.HasSync) {
        for (int B = 0; B < 256; ++B)
          if (!SS.Sync.test(static_cast<unsigned char>(B))) {
            SS.SeqOnly.set(static_cast<unsigned char>(B));
            return true;
          }
      }
    return false;
  });

  return Ms;
}

std::vector<LexerMutation> lexerMutations() {
  using P = LexerTestPeer;
  std::vector<LexerMutation> Ms;
  auto Add = [&](const char *Name, std::function<bool(CompiledLexer &)> Fn) {
    Ms.push_back({Name, std::move(Fn)});
  };
  Add("lexer Tiers.TermAcc+1",
      [](CompiledLexer &L) { ++P::scan(L).Tiers.TermAcc; return true; });
  Add("lexer Tiers.PureAcc-1", [](CompiledLexer &L) {
    if (P::scan(L).Tiers.PureAcc == 0)
      return false;
    --P::scan(L).Tiers.PureAcc;
    return true;
  });
  Add("lexer Tiers.Accept+1",
      [](CompiledLexer &L) { ++P::scan(L).Tiers.Accept; return true; });
  Add("lexer Accept cleared", [](CompiledLexer &L) {
    if (P::scan(L).Tiers.Accept == 0)
      return false;
    P::accept(L)[0] = -1;
    return true;
  });
  Add("lexer Accept out-of-range", [](CompiledLexer &L) {
    if (P::scan(L).Tiers.Accept == 0)
      return false;
    P::accept(L)[0] = static_cast<int32_t>(P::toks(L).size());
    return true;
  });
  Add("lexer Trans16 flip", [](CompiledLexer &L) {
    if (P::scan(L).Trans16.empty())
      return false;
    P::scan(L).Trans16[0] = P::scan(L).Trans16[0] < 0 ? 0 : int16_t(-1);
    return true;
  });
  Add("lexer Trans8 flip", [](CompiledLexer &L) {
    if (P::scan(L).Trans8.empty())
      return false;
    P::scan(L).Trans8[0] = P::scan(L).Trans8[0] == 0xff ? 0 : 0xff;
    return true;
  });
  Add("lexer Trans8 out-of-range", [](CompiledLexer &L) {
    if (P::scan(L).Trans8.empty() || L.numStates() >= ScanTables::Dead8)
      return false;
    P::scan(L).Trans8[0] = static_cast<uint8_t>(L.numStates());
    return true;
  });
  Add("lexer Skip bit dropped", [](CompiledLexer &L) {
    for (SkipSet &S : P::scan(L).Skip)
      if (dropOneBit(S))
        return true;
    return false;
  });
  Add("lexer Start out-of-range", [](CompiledLexer &L) {
    P::start(L) = L.numStates();
    return true;
  });
  return Ms;
}

struct Tally {
  size_t Applied = 0;
  size_t Detected = 0;
  std::vector<std::string> Missed;
};

void runParserMutations(const FlapParser &Base, const std::string &Sample,
                        Tally &T) {
  for (const ParserMutation &Mu : parserMutations()) {
    CompiledParser M = Base.M;
    if (!Mu.Apply(M))
      continue;
    ++T.Applied;
    VerifyOptions Opts;
    Opts.Lints = false;
    if (detected(verifyCompiledParser(M, Opts))) {
      ++T.Detected;
    } else {
      T.Missed.push_back(std::string(Base.Def->Name) + "/" + Mu.Name);
      // Zero-crash contract: a corruption the verifier passes must be
      // harmless to the engine in every mode — values and events run
      // the markers and ε-programs recognition skips, so a missed
      // value-flow corruption aborts here. (A wrong *answer* is
      // acceptable — a crash or sanitizer report is not.)
      for (ParseMode Mode :
           {ParseMode::Recognize, ParseMode::Values, ParseMode::Events}) {
        ParseRequest Req;
        Req.Mode = Mode;
        ParseScratch Scr;
        ParseOutcome O;
        (void)M.run(Req, Sample, Scr, O);
      }
    }
  }
}

void runLexerMutations(const FlapParser &Base, const std::string &Sample,
                       Tally &T) {
  CompiledLexer Clean(*Base.Def->Re, Base.Canon);
  for (const LexerMutation &Mu : lexerMutations()) {
    CompiledLexer L = Clean;
    if (!Mu.Apply(L))
      continue;
    ++T.Applied;
    VerifyOptions Opts;
    Opts.Lints = false;
    if (detected(verifyCompiledLexer(L, Opts))) {
      ++T.Detected;
    } else {
      T.Missed.push_back(std::string(Base.Def->Name) + "/" + Mu.Name);
      (void)L.lexAll(Sample);
    }
  }
}

TEST(VerifyTest, CleanTablesVerifyCleanly) {
  for (auto &Def : allBenchmarkGrammars()) {
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok()) << Def->Name << ": " << P.error();
    VerifyOptions Opts;
    Opts.Lints = false;
    VerifyReport PR = verifyFlapParser(P.value(), Opts);
    EXPECT_TRUE(PR.ok() && !detected(PR))
        << Def->Name << " parser: " << PR.summary();
    CompiledLexer L(*Def->Re, P.value().Canon);
    VerifyReport LR = verifyCompiledLexer(L, Opts);
    EXPECT_TRUE(LR.ok() && !detected(LR))
        << Def->Name << " lexer: " << LR.summary();
  }
}

TEST(VerifyTest, SingleFieldCorruptionsAreFlaggedBeforeEngineEntry) {
  Tally T;
  auto Run = [&](std::shared_ptr<GrammarDef> Def, const std::string &Sample) {
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok()) << Def->Name << ": " << P.error();
    runParserMutations(P.value(), Sample, T);
    runLexerMutations(P.value(), Sample, T);
  };
  for (auto &Def : allBenchmarkGrammars())
    Run(Def, sampleInput(Def->Name));
  // Every benchmark machine stores Trans8; this one's parser and lexer
  // store Trans16, so the 16-bit mutations apply somewhere.
  std::vector<std::string> Words;
  std::shared_ptr<GrammarDef> Big = makeBigMachineGrammar(Words);
  Run(Big, Words[0] + " " + Words[1]);
  ASSERT_GT(T.Applied, 0u);
  for (const std::string &Miss : T.Missed)
    std::printf("verifier miss (engine survived): %s\n", Miss.c_str());
  double Ratio = double(T.Detected) / double(T.Applied);
  std::printf("mutation detection: %zu/%zu (%.1f%%)\n", T.Detected, T.Applied,
              100.0 * Ratio);
  EXPECT_GE(Ratio, 0.95) << T.Missed.size() << " undetected corruptions";
}

/// Structured findings must carry their anchors: the detection above is
/// only actionable if a finding names the component, field, and state
/// or nonterminal it fired on.
TEST(VerifyTest, FindingsCarryStructuredAnchors) {
  auto P = compileFlap(makeJsonGrammar());
  ASSERT_TRUE(P.ok());
  CompiledParser M = P.value().M;
  ASSERT_GT(M.Scan.Tiers.Accept, 0);
  M.AcceptCont[0] = -1;
  VerifyOptions Opts;
  Opts.Lints = false;
  VerifyReport R = verifyCompiledParser(M, Opts);
  ASSERT_FALSE(R.ok());
  bool Anchored = false;
  for (const VerifyFinding &F : R.Findings)
    if (F.Sev == VerifyFinding::Severity::Error && F.Component == "parser" &&
        !F.Field.empty() && (F.State >= 0 || F.Nt >= 0))
      Anchored = true;
  EXPECT_TRUE(Anchored) << R.summary();
}

/// A Reduce event carries its OpPool index in ParseEvent's 30-bit id
/// field, so the audit refuses a pool of more than CompiledParser::MaxOps
/// occurrences (compileFused makes the same check). The seam is a
/// borrowed OpPool view one entry past the bound over a read-only
/// MAP_NORESERVE mapping: no 2^30-op grammar is compiled, and the size
/// finding gates the per-op walk, so the mapping is barely touched.
TEST(VerifyTest, OpPoolPastTheEventIdWidthIsRefused) {
  static_assert(CompiledParser::MaxOps == size_t(1) << 30);
  auto P = compileFlap(makeJsonGrammar());
  ASSERT_TRUE(P.ok());
  CompiledParser M = P.value().M;
  const size_t Ops = CompiledParser::MaxOps + 1;
  const size_t Bytes = Ops * sizeof(MicroOp);
  void *Map = mmap(nullptr, Bytes, PROT_READ,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Map == MAP_FAILED)
    GTEST_SKIP() << "cannot map " << Bytes << " bytes of address space";
  M.OpPool.borrow(static_cast<const MicroOp *>(Map), Ops);
  VerifyOptions Opts;
  Opts.Lints = false;
  const VerifyReport R = verifyCompiledParser(M, Opts);
  munmap(Map, Bytes);
  EXPECT_FALSE(R.ok());
  bool Refused = false;
  for (const VerifyFinding &F : R.Findings)
    Refused |= F.Sev == VerifyFinding::Severity::Error &&
               F.Field == "OpPool" &&
               F.Detail.find("30-bit event id") != std::string::npos;
  EXPECT_TRUE(Refused) << R.summary();
}

/// A machine stores its transition function once, in the width its
/// state count selects: Trans8 up to MaxSmallStates states, Trans16
/// above, the other table empty — when compiled and after an artifact
/// reload. The staged machine and the lexer DFA share one scan-table
/// audit, and both verifiers refuse a machine missing its width or
/// carrying the other one as well.
TEST(VerifyTest, ScanTablesHoldExactlyOneWidth) {
  auto ExpectOneWidth = [](const ScanTables &T, int NumStates,
                           const std::string &What) {
    const size_t Cells = static_cast<size_t>(NumStates) * 256;
    if (static_cast<size_t>(NumStates) <= ScanTables::MaxSmallStates) {
      EXPECT_EQ(T.Trans8.size(), Cells) << What;
      EXPECT_TRUE(T.Trans16.empty()) << What;
    } else {
      EXPECT_EQ(T.Trans16.size(), Cells) << What;
      EXPECT_TRUE(T.Trans8.empty()) << What;
    }
  };
  // Clears the stored width, or adds the other one; returns its name.
  auto Corrupt = [](ScanTables &T, bool ClearStored) -> std::string {
    const bool Narrow = !T.Trans8.empty();
    if (ClearStored) {
      Narrow ? T.Trans8.clear() : T.Trans16.clear();
      return Narrow ? "Trans8" : "Trans16";
    }
    if (Narrow)
      T.Trans16 = widened(T);
    else
      T.Trans8.assign(T.Trans16.size(), ScanTables::Dead8);
    return Narrow ? "Trans16" : "Trans8";
  };
  auto HasError = [](const VerifyReport &R, const std::string &Field) {
    for (const VerifyFinding &F : R.Findings)
      if (F.Sev == VerifyFinding::Severity::Error && F.Field == Field)
        return true;
    return false;
  };
  VerifyOptions Opts;
  Opts.Lints = false;

  std::vector<std::shared_ptr<GrammarDef>> Defs = allBenchmarkGrammars();
  std::vector<std::string> Words;
  Defs.push_back(makeBigMachineGrammar(Words));
  for (auto &Def : Defs) {
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok()) << Def->Name << ": " << P.error();
    const CompiledParser &M = P.value().M;
    CompiledLexer L(*Def->Re, P.value().Canon);
    const ScanTables &LS = LexerTestPeer::scan(L);
    ExpectOneWidth(M.Scan, M.numStates(), Def->Name + " parser");
    ExpectOneWidth(LS, L.numStates(), Def->Name + " lexer");

    Result<LoadedArtifact> A =
        loadArtifact(MappedBlob::fromBuffer(serializeArtifact(P.value(), &L)),
                     Def->L->Actions);
    ASSERT_TRUE(A.ok()) << Def->Name << ": " << A.error();
    ASSERT_TRUE(A->Lexer) << Def->Name;
    ExpectOneWidth(A->M.Scan, A->M.numStates(), Def->Name + " reloaded");
    ExpectOneWidth(LexerTestPeer::scan(*A->Lexer), A->Lexer->numStates(),
                   Def->Name + " reloaded lexer");

    for (bool ClearStored : {true, false}) {
      const char *How = ClearStored ? " cleared" : " second width";
      CompiledParser BadM = M;
      std::string Field = Corrupt(BadM.Scan, ClearStored);
      EXPECT_TRUE(HasError(verifyCompiledParser(BadM, Opts), Field))
          << Def->Name << " parser " << Field << How;
      CompiledLexer BadL = L;
      Field = Corrupt(LexerTestPeer::scan(BadL), ClearStored);
      EXPECT_TRUE(HasError(verifyCompiledLexer(BadL, Opts), Field))
          << Def->Name << " lexer " << Field << How;
    }
  }
}

} // namespace
