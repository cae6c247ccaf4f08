//===- engine/Verify.cpp - Compiled-artifact verifier --------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
//
// Everything here is re-derivation, never trust: per-state tiers come
// back out of DispatchTier.h's shared classification, per-nonterminal
// structure is recovered by reachability over the transition tables (the
// staging construction keeps the state spaces of distinct nonterminals
// disjoint), and the value-flow facts (net stack effect, minimum
// excursion, ValueFree) are re-proved by the same grounded fixpoints
// compileFused ran — once over the reference pools and once over the
// elision-rewritten packed pools, with the two worlds cross-checked.
//
//===----------------------------------------------------------------------===//

#include "engine/Verify.h"

#include "engine/DispatchTier.h"
#include "engine/Pipeline.h"
#include "lexer/CompiledLexer.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <set>

using namespace flap;

namespace {

const char *sevName(VerifyFinding::Severity S) {
  switch (S) {
  case VerifyFinding::Severity::Error:
    return "error";
  case VerifyFinding::Severity::Warning:
    return "warning";
  case VerifyFinding::Severity::Lint:
    return "lint";
  }
  return "error";
}

/// Finding accumulator: expect() counts a check, finding() records its
/// failure (bounded by MaxFindings, overflow counted in Dropped).
class Checker {
public:
  Checker(VerifyReport &R, const VerifyOptions &Opts, const char *Comp)
      : R(R), Opts(Opts), Comp(Comp) {}

  bool expect(bool Cond) {
    ++R.Checked;
    return Cond;
  }

  void finding(VerifyFinding::Severity Sev, std::string Field, int32_t State,
               int32_t Nt, std::string Detail) {
    if (R.Findings.size() >= Opts.MaxFindings) {
      ++R.Dropped;
      return;
    }
    VerifyFinding F;
    F.Sev = Sev;
    F.Component = Comp;
    F.Field = std::move(Field);
    F.State = State;
    F.Nt = Nt;
    F.Detail = std::move(Detail);
    R.Findings.push_back(std::move(F));
  }

  void error(std::string Field, int32_t State, int32_t Nt,
             std::string Detail) {
    finding(VerifyFinding::Severity::Error, std::move(Field), State, Nt,
            std::move(Detail));
  }

private:
  VerifyReport &R;
  const VerifyOptions &Opts;
  const char *Comp;
};

/// Re-finalizing a copy of \p S from its bitmap alone must reproduce the
/// stored range decomposition — a corrupted Lo/Hi/NumRanges would make
/// the SIMD kernels disagree with the bitmap kernels.
bool rangesConsistent(const SkipSet &S) {
  SkipSet Fresh;
  std::memcpy(Fresh.Bits, S.Bits, sizeof(Fresh.Bits));
  Fresh.finalize();
  if (Fresh.NumRanges != S.NumRanges)
    return false;
  for (int I = 0; I < S.NumRanges; ++I)
    if (Fresh.Lo[I] != S.Lo[I] || Fresh.Hi[I] != S.Hi[I])
      return false;
  return true;
}

/// What the scan-table audit established, for the passes that index
/// rows and tier prefixes after it.
struct ScanAudit {
  bool BoundsOk = true; ///< tier bounds monotone and within the machine
  bool TableOk = false; ///< only the selected width, one row per state
  bool RowsOk = false;  ///< ... and every cell is dead or a state id
};

/// The one scan-table audit (engine/DispatchTier.h), shared by the
/// staged machine and the lexer DFA: tier bounds, the one stored width
/// (the one the state count selects, one 256-entry row per state) and
/// its cell ranges, each state's tier re-derived from its outgoing
/// shape and accept class through the exact DispatchTier.h
/// classification that assigned it (what makes the dispatch fast
/// paths' register compares sound), and each skip set's exactness and
/// range/bitmap agreement (the SIMD and bitmap kernels must classify
/// identically). Every row is read through ScanTables::next(), the
/// width the kernels run. \p Classes holds each state's accept class
/// as the machine's own accept data claims it, or is empty when that
/// data failed its own checks (the tier re-derivation is then skipped).
ScanAudit
auditScanTables(Checker &C, const ScanTables &T, size_t NS,
                const std::vector<dispatchtier::AcceptClass> &Classes) {
  ScanAudit A;
  const dispatchtier::Bounds &Tr = T.Tiers;
  const int32_t B[6] = {0, Tr.PureSkip, Tr.SelfSkip,
                        Tr.TermAcc, Tr.PureAcc, Tr.Accept};
  const char *Names[6] = {"", "Tiers.PureSkip", "Tiers.SelfSkip",
                          "Tiers.TermAcc", "Tiers.PureAcc", "Tiers.Accept"};
  for (int I = 1; I < 6; ++I)
    if (!C.expect(B[I] >= B[I - 1])) {
      A.BoundsOk = false;
      C.error(Names[I], -1, -1,
              format("tier bound %d below its predecessor %d (bounds "
                     "must be monotone)",
                     B[I], B[I - 1]));
    }
  if (!C.expect(Tr.Accept <= static_cast<int32_t>(NS))) {
    A.BoundsOk = false;
    C.error("Tiers.Accept", -1, -1,
            format("accepting tier bound %d exceeds the %zu-state machine",
                   Tr.Accept, NS));
  }

  // One stored width, the one the state count selects: a small machine
  // without Trans8 would silently run the wider kernel, and a second
  // copy is a function nothing keeps in lockstep. The finding names the
  // missing width, else the extra one.
  const bool Small = NS <= ScanTables::MaxSmallStates;
  const char *Name = Small ? "Trans8" : "Trans16";
  const size_t Want = Small ? T.Trans8.size() : T.Trans16.size();
  const size_t Other = Small ? T.Trans16.size() : T.Trans8.size();
  A.TableOk = C.expect(Want == NS * 256 && Other == 0);
  if (!A.TableOk)
    C.error((Want != NS * 256) == Small ? "Trans8" : "Trans16", -1, -1,
            format("a %zu-state machine stores %zu entries in %s only; "
                   "found %zu there and %zu in the other width",
                   NS, NS * 256, Name, Want, Other));
  const bool SkipOk = C.expect(T.Skip.size() == NS);
  if (!SkipOk)
    C.error("Skip", -1, -1,
            format("%zu skip sets for %zu states", T.Skip.size(), NS));

  if (!A.TableOk || !A.BoundsOk)
    return A; // everything below walks table rows / tier prefixes

  A.RowsOk = true;
  scankernel::withWidth(T, [&](auto Width) {
    using Tab = decltype(Width);
    const typename Tab::Cell *Cells = Tab::table(T);
    for (size_t I = 0; I < NS * 256; ++I) {
      const typename Tab::Cell V = Cells[I];
      if (!C.expect(V == Tab::Dead ||
                    (!Tab::dead(V) && static_cast<size_t>(V) < NS))) {
        A.RowsOk = false;
        C.error(format("%s[%zu]", Name, I),
                static_cast<int32_t>(I / 256), -1,
                format("target %d is neither dead (%d) nor in [0, %zu)",
                       static_cast<int>(V), static_cast<int>(Tab::Dead),
                       NS));
      }
    }
  });
  if (!A.RowsOk)
    return A;

  if (Classes.size() == NS)
    for (size_t S = 0; S < NS; ++S) {
      int Derived = dispatchtier::tierOf(
          Classes[S],
          dispatchtier::outShape([&](int Bt) { return T.next(S, Bt); },
                                 static_cast<int32_t>(S)));
      int Claimed = dispatchtier::tierOfId(Tr, static_cast<int32_t>(S));
      if (!C.expect(Derived == Claimed))
        C.error("tier", static_cast<int32_t>(S), -1,
                format("state id sits in tier %d but its shape/accept "
                       "class re-derives tier %d",
                       Claimed, Derived));
    }

  if (SkipOk)
    for (size_t S = 0; S < NS; ++S) {
      bool Exact = true;
      for (int Bt = 0; Bt < 256 && Exact; ++Bt)
        Exact = T.Skip[S].test(static_cast<unsigned char>(Bt)) ==
                (T.next(S, Bt) == static_cast<int32_t>(S));
      if (!C.expect(Exact))
        C.error(format("Skip[%zu]", S), static_cast<int32_t>(S), -1,
                "skip set disagrees with the state's self-loop bytes");
      if (!C.expect(rangesConsistent(T.Skip[S])))
        C.error(format("Skip[%zu]", S), static_cast<int32_t>(S), -1,
                "range decomposition disagrees with the bitmap");
    }
  return A;
}

/// One value-producing symbol of a production tail in either world:
/// a child nonterminal, or a marker popping Arity values and pushing 1.
struct VEntry {
  bool IsNt = false;
  uint32_t Idx = 0;  ///< NtId, ActionId (reference) or OpPool index
  int32_t Arity = 0; ///< marker arity in this world
};

/// One production as seen by the value-flow fixpoints.
struct VProd {
  NtId Owner = NoNt;
  bool Push = false; ///< head token materialized in this world
  std::vector<VEntry> Tail;
};

/// The grounded value-flow facts of one world (reference pools or
/// elision-rewritten packed pools), mirroring compileFused's Phase A.
struct VWorld {
  std::vector<int32_t> Net, MinD;
  std::vector<uint8_t> Known, Usable;
};

/// Phase A1 mirror: grounded per-nonterminal net effects + consistency,
/// then the Phase A2 minimum-excursion fixpoint. \p EpsNet/EpsMin are
/// per-EpsChain (net and min excursion of the marker chain, depth 0
/// base); entries are -1-free: chains are indexed by Nts[N].EpsChain.
void runValueFlow(size_t NumNts, const std::vector<VProd> &Prods,
                  const std::vector<int32_t> &EpsOf,
                  const std::vector<int32_t> &EpsNet,
                  const std::vector<int32_t> &EpsMin, VWorld &W) {
  W.Net.assign(NumNts, 0);
  W.MinD.assign(NumNts, 0);
  W.Known.assign(NumNts, 0);
  W.Usable.assign(NumNts, 0);

  std::vector<std::vector<size_t>> ByNt(NumNts);
  for (size_t I = 0; I < Prods.size(); ++I)
    if (Prods[I].Owner < NumNts)
      ByNt[Prods[I].Owner].push_back(I);

  auto WalkNet = [&](const VProd &P, int32_t &Net) {
    int32_t D = P.Push ? 1 : 0;
    // Reference-world productions always push their head token; the
    // rewritten world may have elided it. Either way the net walk
    // starts at the materialized push count.
    if (!P.Push)
      D = 0;
    for (const VEntry &E : P.Tail) {
      if (E.IsNt) {
        if (!W.Known[E.Idx])
          return false;
        D += W.Net[E.Idx];
      } else {
        D += 1 - E.Arity;
      }
    }
    Net = D;
    return true;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (NtId N = 0; N < NumNts; ++N) {
      if (W.Known[N])
        continue;
      int32_t Net;
      bool Got = false;
      for (size_t I : ByNt[N])
        if (WalkNet(Prods[I], Net)) {
          Got = true;
          break;
        }
      if (!Got && EpsOf[N] >= 0) {
        Net = EpsNet[EpsOf[N]];
        Got = true;
      }
      if (Got) {
        W.Net[N] = Net;
        W.Known[N] = 1;
        Changed = true;
      }
    }
  }

  // Consistency: every walkable production of a known nonterminal must
  // agree with its net (and the ε fallback too). Disagreement poisons
  // the nonterminal — exactly compileFused's tolerance.
  for (NtId N = 0; N < NumNts; ++N) {
    if (!W.Known[N])
      continue;
    bool Ok = true;
    int32_t Net;
    for (size_t I : ByNt[N])
      if (WalkNet(Prods[I], Net) && Net != W.Net[N])
        Ok = false;
    if (EpsOf[N] >= 0 && EpsNet[EpsOf[N]] != W.Net[N])
      Ok = false;
    W.Usable[N] = Ok;
  }

  auto WalkMin = [&](const VProd &P, int32_t &MinD) {
    int32_t D = P.Push ? 1 : 0;
    int32_t Mn = 0;
    for (const VEntry &E : P.Tail) {
      if (E.IsNt) {
        if (!W.Usable[E.Idx])
          return false;
        Mn = std::min(Mn, D + W.MinD[E.Idx]);
        D += W.Net[E.Idx];
      } else {
        Mn = std::min(Mn, D - E.Arity);
        D += 1 - E.Arity;
      }
    }
    MinD = Mn;
    return true;
  };

  Changed = true;
  int Rounds = 0;
  while (Changed && ++Rounds < 64) {
    Changed = false;
    for (NtId N = 0; N < NumNts; ++N) {
      if (!W.Usable[N])
        continue;
      int32_t Mn = 0, D;
      bool Ok = true;
      for (size_t I : ByNt[N]) {
        if (!WalkMin(Prods[I], D))
          Ok = false;
        else
          Mn = std::min(Mn, D);
      }
      if (EpsOf[N] >= 0)
        Mn = std::min(Mn, EpsMin[EpsOf[N]]);
      if (!Ok || Mn < -64) {
        W.Usable[N] = 0;
        Changed = true;
      } else if (Mn < W.MinD[N]) {
        W.MinD[N] = Mn;
        Changed = true;
      }
    }
  }
  if (Rounds >= 64)
    std::fill(W.Usable.begin(), W.Usable.end(), 0);
}

} // namespace

std::string VerifyFinding::message() const {
  return formatVerifyFinding(sevName(Sev), Component, Field, State,
                             Nt == static_cast<int32_t>(NoNt) ? -1 : Nt,
                             Detail);
}

size_t VerifyReport::errors() const {
  size_t N = 0;
  for (const VerifyFinding &F : Findings)
    N += F.Sev == VerifyFinding::Severity::Error;
  return N;
}

std::string VerifyReport::summary() const {
  size_t E = 0, W = 0, L = 0;
  for (const VerifyFinding &F : Findings) {
    switch (F.Sev) {
    case VerifyFinding::Severity::Error:
      ++E;
      break;
    case VerifyFinding::Severity::Warning:
      ++W;
      break;
    case VerifyFinding::Severity::Lint:
      ++L;
      break;
    }
  }
  return format("%zu checks, %zu errors, %zu warnings, %zu lints%s",
                Checked, E, W, L, Dropped ? " (findings truncated)" : "");
}

VerifyReport flap::verifyCompiledParser(const CompiledParser &M,
                                        const VerifyOptions &Opts) {
  VerifyReport R;
  Checker C(R, Opts, "parser");

  const size_t NS = M.AcceptCont.size();
  const size_t NumNts = M.Nts.size();
  const size_t NumConts = M.Conts.size();

  if (!C.expect(NS <= CompiledParser::MaxPackedStates))
    C.error("numStates", -1, -1,
            format("%zu states exceed the 16-bit packed id width (max "
                   "%zu)",
                   NS, CompiledParser::MaxPackedStates));
  if (!C.expect(NumNts <= CompiledParser::MaxPackedNts))
    C.error("Nts", -1, -1,
            format("%zu nonterminals exceed the 15-bit packed NtId "
                   "width (max %zu)",
                   NumNts, CompiledParser::MaxPackedNts));

  //===------------------------------------------------------------===//
  // Per-state accept structure: AcceptCont must be an accepting-prefix
  // map. Its continuations' kinds are the accept classes the scan-table
  // audit re-derives every state's tier from.
  //===------------------------------------------------------------===//
  const int32_t NumAccept = M.Scan.Tiers.Accept;
  bool AcceptRefsOk = true, ClassesOk = true;
  std::vector<dispatchtier::AcceptClass> Classes(NS);
  for (size_t S = 0; S < NS; ++S) {
    int32_t A = M.AcceptCont[S];
    if (!C.expect(A >= -1 && A < static_cast<int32_t>(NumConts))) {
      AcceptRefsOk = ClassesOk = false;
      C.error(format("AcceptCont[%zu]", S), static_cast<int32_t>(S), -1,
              format("continuation %d out of range [-1, %zu)", A,
                     NumConts));
      continue;
    }
    if (!C.expect((A >= 0) == (S < static_cast<size_t>(NumAccept)))) {
      AcceptRefsOk = false;
      C.error(format("AcceptCont[%zu]", S), static_cast<int32_t>(S), -1,
              A >= 0 ? std::string("non-accepting tier state carries a "
                                   "continuation")
                     : std::string("accepting tier state carries no "
                                   "continuation"));
    }
    Classes[S] = A < 0 ? dispatchtier::AcceptClass::None
                 : M.Conts[A].SelfSkip ? dispatchtier::AcceptClass::SelfSkip
                                       : dispatchtier::AcceptClass::Regular;
  }
  if (!ClassesOk)
    Classes.clear();
  const ScanAudit SA = auditScanTables(C, M.Scan, NS, Classes);

  //===------------------------------------------------------------===//
  // Structural sizes. Later passes index off these, so a wrong size
  // both gets its own finding and gates the dependent checks.
  //===------------------------------------------------------------===//
  bool AccOk = SA.BoundsOk &&
               C.expect(M.AccMeta.size() == static_cast<size_t>(NumAccept)) &&
               C.expect(M.AccNtMeta.size() == static_cast<size_t>(NumAccept));
  if (SA.BoundsOk && !AccOk)
    C.error("AccMeta", -1, -1,
            format("%zu/%zu packed accept entries for Tiers.Accept=%d",
                   M.AccMeta.size(), M.AccNtMeta.size(), NumAccept));
  bool NtParOk = C.expect(M.NtNames.size() == NumNts) &&
                 C.expect(M.NtExpected.size() == NumNts) &&
                 C.expect(M.SyncSpecs.size() == NumNts);
  if (!NtParOk)
    C.error("Nts", -1, -1,
            format("per-nonterminal arrays disagree: %zu names, %zu "
                   "expected sets, %zu sync specs for %zu nonterminals",
                   M.NtNames.size(), M.NtExpected.size(),
                   M.SyncSpecs.size(), NumNts));
  bool EpsParOk = C.expect(M.EpsPrograms.size() == M.EpsChains.size());
  if (!EpsParOk)
    C.error("EpsPrograms", -1, -1,
            format("%zu programs for %zu chains", M.EpsPrograms.size(),
                   M.EpsChains.size()));
  bool OpParOk = C.expect(M.OpActs.size() == M.OpPool.size());
  if (!OpParOk)
    C.error("OpActs", -1, -1,
            format("%zu action ids for %zu pool ops", M.OpActs.size(),
                   M.OpPool.size()));
  // A Reduce event carries its OpPool index in a 30-bit id field.
  if (!C.expect(M.OpPool.size() <= CompiledParser::MaxOps)) {
    OpParOk = false;
    C.error("OpPool", -1, -1,
            format("%zu marker occurrences exceed the 30-bit event id "
                   "width (max %zu)",
                   M.OpPool.size(), CompiledParser::MaxOps));
  }
  bool ActsOk = C.expect(M.Actions != nullptr);
  if (!ActsOk)
    C.error("Actions", -1, -1, "action table pointer is null");

  if (!SA.TableOk || !SA.BoundsOk)
    return R; // everything below walks table rows / tier prefixes

  //===------------------------------------------------------------===//
  // Continuations and their pools.
  //===------------------------------------------------------------===//
  bool ContsOk = true;
  // compileFused appends each continuation's tail in creation order, so
  // the windows tile the pool exactly: Conts[k].TailOff is the running
  // sum of the preceding lengths, and the last window ends at the pool
  // size. A length or offset drifting by one (while still in bounds)
  // silently reads the neighbouring production's symbols.
  {
    size_t Running = 0;
    bool Tiled = true;
    for (size_t K = 0; K < NumConts && Tiled; ++K) {
      Tiled = C.expect(M.Conts[K].TailOff == Running);
      if (!Tiled) {
        ContsOk = false;
        C.error(format("Conts[%zu].TailOff", K), -1, -1,
                format("tail starts at %u but the preceding tails end at "
                       "%zu (windows must tile the pool)",
                       M.Conts[K].TailOff, Running));
      }
      Running += M.Conts[K].TailLen;
    }
    if (Tiled && !C.expect(Running == M.TailPool.size())) {
      ContsOk = false;
      C.error("TailPool", -1, -1,
              format("continuation tails cover %zu symbols but the pool "
                     "holds %zu",
                     Running, M.TailPool.size()));
    }
  }
  for (size_t K = 0; K < NumConts; ++K) {
    const CompiledParser::Cont &Kt = M.Conts[K];
    if (!C.expect(static_cast<size_t>(Kt.TailOff) + Kt.TailLen <=
                  M.TailPool.size())) {
      ContsOk = false;
      C.error(format("Conts[%zu]", K), -1, -1,
              format("tail [%u, +%u) overruns the %zu-symbol pool",
                     Kt.TailOff, Kt.TailLen, M.TailPool.size()));
      continue;
    }
    for (uint32_t J = 0; J < Kt.TailLen; ++J) {
      const Sym &S = M.TailPool[Kt.TailOff + J];
      bool Ok = S.isNt() ? S.Idx < NumNts
                         : (!ActsOk || S.Idx < M.Actions->size());
      if (!C.expect(Ok)) {
        ContsOk = false;
        C.error(format("TailPool[%u]", Kt.TailOff + J), -1, -1,
                format("%s id %u out of range",
                       S.isNt() ? "nonterminal" : "action", S.Idx));
      }
    }
  }

  auto PoolEntryOk = [&](uint32_t E, bool AllowAct, const char *Pool,
                         size_t I) {
    if (E & CompiledParser::ActBit) {
      uint32_t Op = E & ~CompiledParser::ActBit;
      if (!C.expect(AllowAct && Op < M.OpPool.size())) {
        C.error(format("%s[%zu]", Pool, I), -1, -1,
                AllowAct ? format("marker occurrence %u out of range "
                                  "[0, %zu)",
                                  Op, M.OpPool.size())
                         : std::string("marker in the nonterminal-only "
                                       "pool"));
        return false;
      }
      return true;
    }
    NtId N = CompiledParser::packedNt(E);
    if (!C.expect(N < NumNts)) {
      C.error(format("%s[%zu]", Pool, I), -1, -1,
              format("packed NtId %u out of range [0, %zu)", N, NumNts));
      return false;
    }
    if (!C.expect((E & 0xffffu) ==
                  static_cast<uint32_t>(M.Nts[N].StartState))) {
      C.error(format("%s[%zu]", Pool, I), M.Nts[N].StartState,
              static_cast<int32_t>(N),
              format("packed start state %u disagrees with "
                     "Nts[%u].StartState = %d",
                     E & 0xffffu, N, M.Nts[N].StartState));
      return false;
    }
    return true;
  };
  bool PoolsOk = true;
  for (size_t I = 0; I < M.PackedPool.size(); ++I)
    PoolsOk &= PoolEntryOk(M.PackedPool[I], true, "PackedPool", I);
  for (size_t I = 0; I < M.NtPool.size(); ++I)
    PoolsOk &= PoolEntryOk(M.NtPool[I], false, "NtPool", I);

  //===------------------------------------------------------------===//
  // Packed accept metadata: pool bounds, token agreement with the
  // continuation (elision may erase a token, never invent one),
  // equality across states sharing a continuation, and structural
  // agreement between the two pools (the NtPool tail must be exactly
  // the nonterminal subsequence of the PackedPool tail).
  //===------------------------------------------------------------===//
  std::vector<int32_t> ContMetaState(NumConts, -1);
  bool MetaOk = AccOk && AcceptRefsOk && ContsOk;
  if (MetaOk)
    for (size_t S = 0; S < static_cast<size_t>(NumAccept); ++S) {
      int32_t A = M.AcceptCont[S];
      uint64_t PM = M.AccMeta[S], NM = M.AccNtMeta[S];
      uint32_t PTok = CompiledParser::metaTok(PM);
      uint32_t PLen = CompiledParser::metaLen(PM);
      uint32_t POff = CompiledParser::metaOff(PM);
      uint32_t NLen = CompiledParser::metaLen(NM);
      uint32_t NOff = CompiledParser::metaOff(NM);
      if (!C.expect(static_cast<size_t>(POff) + PLen <=
                    M.PackedPool.size())) {
        MetaOk = false;
        C.error(format("AccMeta[%zu]", S), static_cast<int32_t>(S), -1,
                format("tail [%u, +%u) overruns the %zu-entry packed "
                       "pool",
                       POff, PLen, M.PackedPool.size()));
        continue;
      }
      if (!C.expect(static_cast<size_t>(NOff) + NLen <=
                    M.NtPool.size())) {
        MetaOk = false;
        C.error(format("AccNtMeta[%zu]", S), static_cast<int32_t>(S), -1,
                format("tail [%u, +%u) overruns the %zu-entry "
                       "nonterminal pool",
                       NOff, NLen, M.NtPool.size()));
        continue;
      }
      if (!C.expect(CompiledParser::metaTok(NM) ==
                    CompiledParser::MetaNoTok)) {
        MetaOk = false;
        C.error(format("AccNtMeta[%zu]", S), static_cast<int32_t>(S), -1,
                "recognize-loop entry carries a token id");
      }
      TokenId KTok = M.Conts[A].PushTok;
      bool TokOk =
          PTok == CompiledParser::MetaNoTok ||
          (KTok != NoToken && PTok == static_cast<uint32_t>(KTok));
      if (!C.expect(TokOk)) {
        MetaOk = false;
        C.error(format("AccMeta[%zu]", S), static_cast<int32_t>(S), -1,
                format("packed token %u is neither elided nor the "
                       "continuation's token %d",
                       PTok, KTok));
      }
      if (ContMetaState[A] < 0)
        ContMetaState[A] = static_cast<int32_t>(S);
      else {
        size_t S0 = static_cast<size_t>(ContMetaState[A]);
        if (!C.expect(M.AccMeta[S0] == PM && M.AccNtMeta[S0] == NM)) {
          MetaOk = false;
          C.error(format("AccMeta[%zu]", S), static_cast<int32_t>(S), -1,
                  format("states %zu and %zu accept continuation %d "
                         "with different packed metadata",
                         S0, S, A));
        }
      }
      if (PoolsOk) {
        // Nonterminal subsequence agreement between the two pools.
        uint32_t NJ = 0;
        bool Agree = true;
        for (uint32_t J = 0; J < PLen && Agree; ++J) {
          uint32_t E = M.PackedPool[POff + J];
          if (E & CompiledParser::ActBit)
            continue;
          Agree = NJ < NLen && M.NtPool[NOff + NJ] == E;
          ++NJ;
        }
        Agree = Agree && NJ == NLen;
        if (!C.expect(Agree)) {
          MetaOk = false;
          C.error(format("AccNtMeta[%zu]", S), static_cast<int32_t>(S),
                  -1,
                  "nonterminal tail is not the nonterminal subsequence "
                  "of the packed tail");
        }
      }
    }

  //===------------------------------------------------------------===//
  // OpPool micro-ops: valid kinds, in-range argument selectors, MSlow
  // immediates carrying their ActionId, and — for occurrences dead-token
  // elision did not rewrite — exact agreement with the action table's
  // own micro projection.
  //===------------------------------------------------------------===//
  bool OpsOk = OpParOk;
  if (OpParOk && ActsOk)
    for (size_t I = 0; I < M.OpPool.size(); ++I) {
      const MicroOp &Op = M.OpPool[I];
      ActionId Act = M.OpActs[I];
      if (!C.expect(static_cast<size_t>(Act) < M.Actions->size())) {
        OpsOk = false;
        C.error(format("OpActs[%zu]", I), -1, -1,
                format("action id %d out of range [0, %zu)", Act,
                       M.Actions->size()));
        continue;
      }
      if (!C.expect(Op.K <= MicroOp::MSlow)) {
        OpsOk = false;
        C.error(format("OpPool[%zu]", I), -1, -1,
                format("invalid micro-op kind %u", Op.K));
        continue;
      }
      if (!C.expect(Op.K != MicroOp::MNop)) {
        OpsOk = false;
        C.error(format("OpPool[%zu]", I), -1, -1,
                "identity occurrence present in the pool (MNop entries "
                "are dropped at pack time)");
      }
      bool SelOk = true;
      switch (Op.K) {
      case MicroOp::MSelect:
      case MicroOp::MAddImm:
      case MicroOp::MTokInt:
        SelOk = Op.Sel >= 0 && Op.Sel < Op.Arity;
        break;
      case MicroOp::MAddArgs:
      case MicroOp::MMaxAcc:
        SelOk = Op.Sel >= 0 && Op.Sel < Op.Arity && Op.Sel2 >= 0 &&
                Op.Sel2 < Op.Arity;
        break;
      default:
        break;
      }
      if (!C.expect(SelOk)) {
        OpsOk = false;
        C.error(format("OpPool[%zu]", I), -1, -1,
                format("argument selector %d/%d outside arity %u",
                       Op.Sel, Op.Sel2, Op.Arity));
      }
      if (Op.K == MicroOp::MSlow &&
          !C.expect(Op.Imm == static_cast<int64_t>(Act))) {
        OpsOk = false;
        C.error(format("OpPool[%zu]", I), -1, -1,
                format("MSlow immediate %lld disagrees with OpActs "
                       "action id %d",
                       static_cast<long long>(Op.Imm), Act));
      }
      if (!(Op.Flags & MicroOp::FRewritten)) {
        MicroOp Ref = M.Actions->micro()[Act];
        bool Same = Op.K == Ref.K && Op.Arity == Ref.Arity &&
                    Op.Sel == Ref.Sel && Op.Sel2 == Ref.Sel2 &&
                    (Op.K == MicroOp::MSlow || Op.Imm == Ref.Imm);
        if (!C.expect(Same)) {
          OpsOk = false;
          C.error(format("OpPool[%zu]", I), -1, -1,
                  format("unrewritten occurrence disagrees with action "
                         "%d's micro projection",
                         Act));
        }
      } else if (!C.expect(Op.Arity <=
                           M.Actions->micro()[Act].Arity)) {
        OpsOk = false;
        C.error(format("OpPool[%zu]", I), -1, -1,
                format("rewritten arity %u exceeds the original arity "
                       "%u",
                       Op.Arity, M.Actions->micro()[Act].Arity));
      }
    }

  //===------------------------------------------------------------===//
  // ε-programs: re-derive each chain's program (kind selection, span,
  // worst-case growth) exactly as compileFused lowered it.
  //===------------------------------------------------------------===//
  std::vector<int32_t> EpsNetTab(M.EpsChains.size(), 0);
  std::vector<int32_t> EpsMinTab(M.EpsChains.size(), 0);
  bool EpsOk = EpsParOk && ActsOk;
  if (EpsOk)
    for (size_t I = 0; I < M.EpsChains.size(); ++I) {
      const std::vector<ActionId> &Chain = M.EpsChains[I];
      const CompiledParser::EpsProgram &P = M.EpsPrograms[I];
      bool IdsOk = true;
      for (ActionId A : Chain)
        if (!C.expect(static_cast<size_t>(A) < M.Actions->size())) {
          IdsOk = false;
          C.error(format("EpsChains[%zu]", I), -1, -1,
                  format("action id %d out of range [0, %zu)", A,
                         M.Actions->size()));
        }
      if (!IdsOk) {
        EpsOk = false;
        continue;
      }
      int32_t Net = 0, MaxNet = 0, Mn = 0;
      for (ActionId A : Chain) {
        int Ar = M.Actions->get(A).Arity;
        Mn = std::min(Mn, Net - Ar);
        Net += 1 - Ar;
        MaxNet = std::max(MaxNet, Net);
      }
      EpsNetTab[I] = Chain.empty() ? 1 : Net;
      EpsMinTab[I] = Mn;

      CompiledParser::EpsProgram::Kind WantK =
          CompiledParser::EpsProgram::Ops;
      if (Chain.empty())
        WantK = CompiledParser::EpsProgram::Unit;
      else if (Chain.size() == 1) {
        const Action &A = M.Actions->get(Chain[0]);
        if (A.Kind == ActionKind::Const && A.Arity == 0)
          WantK = CompiledParser::EpsProgram::OneConst;
      }
      if (!C.expect(P.K == WantK)) {
        EpsOk = false;
        C.error(format("EpsPrograms[%zu]", I), -1, -1,
                format("program kind %d but the chain re-derives kind "
                       "%d",
                       P.K, WantK));
        continue;
      }
      if (P.K != CompiledParser::EpsProgram::Ops) {
        // Unit and OneConst programs never touch the ops pool and push
        // exactly one value from a pre-reserved slot: compileFused
        // leaves their span and growth fields at zero.
        if (!C.expect(P.Off == 0 && P.Len == 0 && P.MaxGrow == 0)) {
          EpsOk = false;
          C.error(format("EpsPrograms[%zu]", I), -1, -1,
                  format("%s program carries a nonzero ops span or "
                         "growth (Off %u, Len %u, MaxGrow %u)",
                         P.K == CompiledParser::EpsProgram::Unit
                             ? "Unit"
                             : "OneConst",
                         P.Off, P.Len, P.MaxGrow));
        }
        continue;
      }
      bool SpanOk =
          C.expect(static_cast<size_t>(P.Off) + P.Len <=
                   M.EpsOps.size()) &&
          C.expect(P.Len == Chain.size());
      if (!SpanOk) {
        EpsOk = false;
        C.error(format("EpsPrograms[%zu]", I), -1, -1,
                format("ops span [%u, +%u) does not cover the %zu-action "
                       "chain (pool has %zu)",
                       P.Off, P.Len, Chain.size(), M.EpsOps.size()));
        continue;
      }
      bool Body = true;
      for (uint32_t J = 0; J < P.Len; ++J)
        Body &= M.EpsOps[P.Off + J] == Chain[J];
      if (!C.expect(Body)) {
        EpsOk = false;
        C.error(format("EpsPrograms[%zu]", I), -1, -1,
                "flattened ops disagree with the chain");
      }
      if (!C.expect(P.MaxGrow == static_cast<uint32_t>(MaxNet))) {
        EpsOk = false;
        C.error(format("EpsPrograms[%zu]", I), -1, -1,
                format("MaxGrow %u but the chain re-derives %d (an "
                       "under-reserve overflows the value stack "
                       "mid-chain)",
                       P.MaxGrow, MaxNet));
      }
    }

  //===------------------------------------------------------------===//
  // Nonterminal records and entry points.
  //===------------------------------------------------------------===//
  // A state is inert when its dispatch row is fully dead and it does
  // not accept: the empty item set. Every productionless nonterminal
  // interns its start there, so inert start states may be shared; any
  // state with items is owned by exactly one nonterminal (continuation
  // ids are globally unique, so item sets never coincide across them).
  auto Inert = [&](int32_t S) {
    if (M.AcceptCont[S] >= 0)
      return false;
    for (int B = 0; B < 256; ++B)
      if (M.Scan.next(S, B) >= 0)
        return false;
    return true;
  };

  bool NtsOk = true;
  {
    std::set<int32_t> Starts;
    for (size_t N = 0; N < NumNts; ++N) {
      const CompiledParser::NtInfo &NI = M.Nts[N];
      if (!C.expect(NI.StartState >= 0 &&
                    NI.StartState < static_cast<int32_t>(NS))) {
        NtsOk = false;
        C.error(format("Nts[%zu].StartState", N), NI.StartState,
                static_cast<int32_t>(N),
                format("start state %d out of range [0, %zu)",
                       NI.StartState, NS));
        continue;
      }
      if (!C.expect(Inert(NI.StartState) ||
                    Starts.insert(NI.StartState).second)) {
        NtsOk = false;
        C.error(format("Nts[%zu].StartState", N), NI.StartState,
                static_cast<int32_t>(N),
                "two nonterminals share a live start state (item sets "
                "with items never coincide across nonterminals)");
      }
      if (!C.expect(NI.EpsChain >= -1 &&
                    NI.EpsChain <
                        static_cast<int32_t>(M.EpsChains.size()))) {
        NtsOk = false;
        C.error(format("Nts[%zu].EpsChain", N), -1,
                static_cast<int32_t>(N),
                format("chain %d out of range [-1, %zu)", NI.EpsChain,
                       M.EpsChains.size()));
      }
    }
    if (!C.expect(M.Start != NoNt && M.Start < NumNts)) {
      NtsOk = false;
      C.error("Start", -1, -1,
              format("start nonterminal %u out of range [0, %zu)",
                     M.Start, NumNts));
    }
    if (!C.expect(M.SkipState >= -1 &&
                  M.SkipState < static_cast<int32_t>(NS))) {
      NtsOk = false; // the ownership pass below seeds from SkipState
      C.error("SkipState", M.SkipState, -1,
              format("state %d out of range [-1, %zu)", M.SkipState,
                     NS));
    }
  }

  //===------------------------------------------------------------===//
  // Sync specs: NotSync must be the exact finalized complement of Sync
  // (skipRun over it is how recovery finds the next sync byte), the
  // HasSync flag must match, sequence metadata must be internally
  // consistent, and a nonterminal advertising sync must have a live
  // entry dispatch row to resume into.
  //===------------------------------------------------------------===//
  if (NtParOk && NtsOk && SA.RowsOk)
    for (size_t N = 0; N < NumNts; ++N) {
      const CompiledParser::SyncSpec &SS = M.SyncSpecs[N];
      if (!C.expect(SS.HasSync == !SS.Sync.empty()))
        C.error(format("SyncSpecs[%zu].HasSync", N), -1,
                static_cast<int32_t>(N),
                "flag disagrees with the sync set's emptiness");
      bool Compl = true;
      for (int B = 0; B < 256 && Compl; ++B)
        Compl = SS.Sync.test(static_cast<unsigned char>(B)) !=
                SS.NotSync.test(static_cast<unsigned char>(B));
      if (!C.expect(Compl))
        C.error(format("SyncSpecs[%zu].NotSync", N), -1,
                static_cast<int32_t>(N),
                "not the exact complement of the sync set (the "
                "resynchronization scan would miss or invent sync "
                "bytes)");
      if (!C.expect(rangesConsistent(SS.Sync)))
        C.error(format("SyncSpecs[%zu].Sync", N), -1,
                static_cast<int32_t>(N),
                "range decomposition disagrees with the bitmap");
      if (!C.expect(rangesConsistent(SS.NotSync)))
        C.error(format("SyncSpecs[%zu].NotSync", N), -1,
                static_cast<int32_t>(N),
                "range decomposition disagrees with the bitmap");
      for (int B = 0; B < 256; ++B)
        if (SS.SeqOnly.test(static_cast<unsigned char>(B)) &&
            !C.expect(SS.Sync.test(static_cast<unsigned char>(B))))
          C.error(format("SyncSpecs[%zu].SeqOnly", N), -1,
                  static_cast<int32_t>(N),
                  format("sequence-tail byte %d is not a sync byte", B));
      for (const std::string &Q : SS.Seqs) {
        bool QOk =
            !Q.empty() &&
            Q.size() <= CompiledParser::SyncSpec::MaxSeqLen &&
            SS.Sync.test(static_cast<unsigned char>(Q.back()));
        if (!C.expect(QOk))
          C.error(format("SyncSpecs[%zu].Seqs", N), -1,
                  static_cast<int32_t>(N),
                  "sync sequence is empty, over-long, or ends off the "
                  "sync set");
      }
      for (int B = 0; B < 256; ++B) {
        if (!SS.SeqOnly.test(static_cast<unsigned char>(B)))
          continue;
        bool Covered = false;
        for (const std::string &Q : SS.Seqs)
          Covered |= !Q.empty() &&
                     static_cast<unsigned char>(Q.back()) ==
                         static_cast<unsigned char>(B);
        if (!C.expect(Covered))
          C.error(format("SyncSpecs[%zu].SeqOnly", N), -1,
                  static_cast<int32_t>(N),
                  format("sequence-only byte %d has no sequence ending "
                         "in it (every candidate would be rejected)",
                         B));
      }
      if (SS.HasSync) {
        int32_t SS0 = M.Nts[N].StartState;
        bool Live = false;
        for (int B = 0; B < 256 && !Live; ++B)
          Live = M.Scan.next(SS0, B) >= 0;
        if (!C.expect(Live))
          C.error(format("SyncSpecs[%zu]", N), SS0,
                  static_cast<int32_t>(N),
                  "nonterminal advertises sync bytes but its entry "
                  "dispatch row is fully dead — no resume point can "
                  "ever be entry-live");
      }
    }

  //===------------------------------------------------------------===//
  // Per-nonterminal structure recovery: color every state with the
  // nonterminal whose scan owns it (reachability from the start
  // states). The staging construction keeps these spaces disjoint; a
  // collision is itself a finding. Accepting states then map their
  // continuations back to owning nonterminals.
  //===------------------------------------------------------------===//
  if (!SA.RowsOk || !AcceptRefsOk || !NtsOk || !ContsOk || !MetaOk ||
      !OpsOk || !EpsOk || !PoolsOk || !ActsOk)
    return R; // value flow below assumes the structure just checked

  constexpr int32_t Unowned = -1, SkipOwner = -2;
  const char *Trans = M.Scan.Trans8.empty() ? "Trans16" : "Trans8";
  std::vector<int32_t> Owner(NS, Unowned);
  {
    std::vector<int32_t> Work;
    auto Seed = [&](int32_t S0, int32_t Own) {
      if (Owner[S0] == Unowned) {
        Owner[S0] = Own;
        Work.push_back(S0);
      } else if (!C.expect(Owner[S0] == Own))
        C.error(Trans, S0, Own >= 0 ? Own : -1,
                "state reachable from two different nonterminal "
                "entries");
    };
    for (size_t N = 0; N < NumNts; ++N)
      if (!Inert(M.Nts[N].StartState)) // shared empty-item-set state
        Seed(M.Nts[N].StartState, static_cast<int32_t>(N));
    if (M.SkipState >= 0 && !Inert(M.SkipState))
      Seed(M.SkipState, SkipOwner);
    while (!Work.empty()) {
      int32_t S = Work.back();
      Work.pop_back();
      for (int B = 0; B < 256; ++B) {
        int32_t D = M.Scan.next(S, B);
        if (D < 0)
          continue;
        if (Owner[D] == Unowned) {
          Owner[D] = Owner[S];
          Work.push_back(D);
        } else if (!C.expect(Owner[D] == Owner[S]))
          C.error(Trans, D, Owner[S] >= 0 ? Owner[S] : -1,
                  "state reachable from two different nonterminal "
                  "entries");
      }
    }
  }
  std::vector<int32_t> ContNt(NumConts, -1);
  for (size_t S = 0; S < static_cast<size_t>(NumAccept); ++S) {
    int32_t A = M.AcceptCont[S];
    int32_t Own = Owner[S];
    if (Own < 0)
      continue; // trailing-skip region or unreachable
    if (ContNt[A] < 0)
      ContNt[A] = Own;
    else if (!C.expect(ContNt[A] == Own))
      C.error(format("AcceptCont[%zu]", S), static_cast<int32_t>(S), Own,
              "continuation accepted inside two different nonterminals' "
              "state spaces");
  }

  //===------------------------------------------------------------===//
  // Value-flow abstract interpretation, run twice: once over the
  // reference pools (Conts/TailPool, action-table arities) and once
  // over the elision-rewritten packed pools (AccMeta token + PackedPool
  // tail, OpPool arities). Each world re-runs compileFused's grounded
  // net / minimum-excursion fixpoints; the worlds must then agree up to
  // exactly the ValueFree claims — which is what re-proves them.
  //===------------------------------------------------------------===//
  {
    std::vector<int32_t> EpsOf(NumNts, -1);
    for (size_t N = 0; N < NumNts; ++N)
      EpsOf[N] = M.Nts[N].EpsChain;

    std::vector<VProd> RefProds, RwProds;
    // (cont id, RefProds idx, RwProds idx or -1) for the per-production
    // cross-world check below.
    std::vector<std::array<int32_t, 3>> Pairs;
    for (size_t K = 0; K < NumConts; ++K) {
      const CompiledParser::Cont &Kt = M.Conts[K];
      if (ContNt[K] < 0 || Kt.SelfSkip || Kt.PushTok == NoToken)
        continue; // unreachable, rescanned in place, or a skip prod
      VProd P;
      P.Owner = static_cast<NtId>(ContNt[K]);
      P.Push = true;
      for (uint32_t J = 0; J < Kt.TailLen; ++J) {
        const Sym &S = M.TailPool[Kt.TailOff + J];
        VEntry E;
        E.IsNt = S.isNt();
        E.Idx = S.Idx;
        E.Arity = S.isNt() ? 0
                           : M.Actions->get(static_cast<ActionId>(S.Idx))
                                 .Arity;
        P.Tail.push_back(E);
      }
      RefProds.push_back(std::move(P));
      Pairs.push_back({static_cast<int32_t>(K),
                       static_cast<int32_t>(RefProds.size() - 1), -1});

      int32_t MS = ContMetaState[K];
      if (MS < 0)
        continue; // no accepting state: the production never completes
      uint64_t PM = M.AccMeta[MS];
      VProd Q;
      Q.Owner = static_cast<NtId>(ContNt[K]);
      Q.Push = CompiledParser::metaTok(PM) != CompiledParser::MetaNoTok;
      uint32_t Off = CompiledParser::metaOff(PM);
      uint32_t Len = CompiledParser::metaLen(PM);
      for (uint32_t J = 0; J < Len; ++J) {
        uint32_t E = M.PackedPool[Off + J];
        VEntry V;
        if (E & CompiledParser::ActBit) {
          V.IsNt = false;
          V.Idx = E & ~CompiledParser::ActBit;
          V.Arity = M.OpPool[V.Idx].Arity;
        } else {
          V.IsNt = true;
          V.Idx = CompiledParser::packedNt(E);
        }
        Q.Tail.push_back(V);
      }
      RwProds.push_back(std::move(Q));
      Pairs.back()[2] = static_cast<int32_t>(RwProds.size() - 1);
    }

    VWorld Ref, Rw;
    runValueFlow(NumNts, RefProds, EpsOf, EpsNetTab, EpsMinTab, Ref);
    runValueFlow(NumNts, RwProds, EpsOf, EpsNetTab, EpsMinTab, Rw);

    // Per-production cross-world check. The nonterminal-level fixpoint
    // below takes the first walkable production per world, so a single
    // corrupted production of a multi-production nonterminal can hide
    // behind its healthy siblings there. Here every production must
    // individually satisfy the erasure relation: its rewritten net
    // equals its reference net minus exactly the owner's ValueFree
    // erasure (elided child values are always compensated at a marker
    // inside the same production, so the relation is production-local).
    auto ProdNet = [](const VWorld &W, const VProd &P, int32_t &Net) {
      int32_t D = P.Push ? 1 : 0;
      for (const VEntry &E : P.Tail) {
        if (E.IsNt) {
          if (!W.Known[E.Idx])
            return false;
          D += W.Net[E.Idx];
        } else {
          D += 1 - static_cast<int32_t>(E.Arity);
        }
      }
      Net = D;
      return true;
    };
    for (const std::array<int32_t, 3> &Pr : Pairs) {
      if (Pr[2] < 0)
        continue;
      int32_t RN, WN;
      if (!ProdNet(Ref, RefProds[Pr[1]], RN) ||
          !ProdNet(Rw, RwProds[Pr[2]], WN))
        continue; // an ungrounded child is reported by the Nt-level pass
      NtId Own = RefProds[Pr[1]].Owner;
      int32_t Want = RN - (M.Nts[Own].ValueFree ? 1 : 0);
      if (!C.expect(WN == Want))
        C.error(format("Conts[%d]", Pr[0]), -1, static_cast<int32_t>(Own),
                format("packed production has net stack effect %d; its "
                       "reference production proves %d",
                       WN, Want));
    }

    for (size_t N = 0; N < NumNts; ++N) {
      // compileFused tolerates a nonterminal whose productions and
      // ε-chain disagree on its net stack effect by leaving it out of
      // the minimum-excursion proof, but a typed grammar never yields
      // one: here it is a corrupted chain or pool, and a path through
      // it may pop below the frame the start symbol's proof covers.
      // (The rewritten world shares the chains, and each of its
      // productions is held to its reference production above.)
      if (Ref.Known[N] && !C.expect(Ref.Usable[N]))
        C.error("net", -1, static_cast<int32_t>(N),
                "productions and ε-chain disagree on the net stack effect");
      if (Ref.Known[N] && Rw.Known[N]) {
        int32_t Want = Ref.Net[N] - (M.Nts[N].ValueFree ? 1 : 0);
        if (!C.expect(Rw.Net[N] == Want))
          C.error("net", -1, static_cast<int32_t>(N),
                  format("rewritten net stack effect %d; the reference "
                         "pools prove %d%s",
                         Rw.Net[N], Want,
                         M.Nts[N].ValueFree ? " (after the ValueFree "
                                              "erasure)"
                                            : ""));
      }
      if (!M.Nts[N].ValueFree)
        continue;
      // Re-prove the ValueFree claim: a pure token nonterminal (single
      // non-skip production, token head, empty tail), not the start
      // symbol, whose packed production pushes nothing.
      size_t NonSkip = 0;
      bool Shape = true;
      int32_t TheCont = -1;
      for (size_t K = 0; K < NumConts; ++K) {
        if (ContNt[K] != static_cast<int32_t>(N) ||
            M.Conts[K].PushTok == NoToken)
          continue;
        ++NonSkip;
        TheCont = static_cast<int32_t>(K);
        Shape &= M.Conts[K].TailLen == 0;
      }
      if (!C.expect(Shape && NonSkip == 1 && N != M.Start))
        C.error(format("Nts[%zu].ValueFree", N), -1,
                static_cast<int32_t>(N),
                "claim not re-provable: the nonterminal is not a "
                "non-start pure token nonterminal");
      else if (TheCont >= 0 && ContMetaState[TheCont] >= 0 &&
               !C.expect(CompiledParser::metaTok(
                             M.AccMeta[ContMetaState[TheCont]]) ==
                         CompiledParser::MetaNoTok))
        C.error(format("Nts[%zu].ValueFree", N), ContMetaState[TheCont],
                static_cast<int32_t>(N),
                "claimed value-free but the packed production still "
                "materializes its token");
    }
    // The advertised entry point parses from an empty value stack: its
    // markers may never reach below their entry frame.
    if (Ref.Usable[M.Start] && !C.expect(Ref.MinD[M.Start] >= 0))
      C.error("minimum excursion", -1, static_cast<int32_t>(M.Start),
              format("reference-world markers of the start symbol reach "
                     "%d below the empty entry stack",
                     Ref.MinD[M.Start]));
    if (Rw.Usable[M.Start] && !C.expect(Rw.MinD[M.Start] >= 0))
      C.error("minimum excursion", -1, static_cast<int32_t>(M.Start),
              format("rewritten-world markers of the start symbol reach "
                     "%d below the empty entry stack",
                     Rw.MinD[M.Start]));
  }

  return R;
}

VerifyReport flap::verifyCompiledLexer(const CompiledLexer &L,
                                       const VerifyOptions &Opts) {
  VerifyReport R;
  Checker C(R, Opts, "lexer");
  const size_t NS = L.Accept.size();

  if (!C.expect(L.Start >= 0 && L.Start < static_cast<int32_t>(NS)))
    C.error("Start", L.Start, -1,
            format("start state %d out of range [0, %zu)", L.Start, NS));

  // Accept-prefix consistency: a state accepts (a valid rule) iff its
  // id sits in the accepting prefix, and the rule's token is in range.
  // The lexer has no self-skip class, so the scan-table audit's tier
  // re-derivation also proves tiers 0/1 empty.
  std::vector<dispatchtier::AcceptClass> Classes(NS);
  for (size_t S = 0; S < NS; ++S) {
    int32_t A = L.Accept[S];
    Classes[S] = A >= 0 ? dispatchtier::AcceptClass::Regular
                        : dispatchtier::AcceptClass::None;
    if (!C.expect(A >= -1 && A < static_cast<int32_t>(L.Toks.size()))) {
      C.error(format("Accept[%zu]", S), static_cast<int32_t>(S), -1,
              format("rule %d out of range [-1, %zu)", A,
                     L.Toks.size()));
      continue;
    }
    if (!C.expect((A >= 0) ==
                  (S < static_cast<size_t>(L.Scan.Tiers.Accept))))
      C.error(format("Accept[%zu]", S), static_cast<int32_t>(S), -1,
              A >= 0 ? std::string("non-accepting tier state carries a "
                                   "rule")
                     : std::string(
                           "accepting tier state carries no rule"));
  }
  auditScanTables(C, L.Scan, NS, Classes);
  return R;
}

void flap::lintGrammar(const FusedGrammar &F, RegexArena &Arena,
                       const CompiledParser &M, VerifyReport &R) {
  VerifyOptions Opts; // lints share the default finding cap
  Checker C(R, Opts, "grammar");
  const size_t NumNts = F.numNts();
  if (M.Nts.size() != NumNts || F.Start >= NumNts)
    return; // table/grammar mismatch: the table audit reports it

  // Reachability over the fused productions.
  std::vector<uint8_t> Reach(NumNts, 0);
  {
    std::vector<NtId> Work{F.Start};
    Reach[F.Start] = 1;
    while (!Work.empty()) {
      NtId N = Work.back();
      Work.pop_back();
      for (const FusedProd &P : F.Nts[N].Prods)
        for (const Sym &S : P.Tail)
          if (S.isNt() && !Reach[S.Idx]) {
            Reach[S.Idx] = 1;
            Work.push_back(S.Idx);
          }
    }
  }
  for (size_t N = 0; N < NumNts; ++N) {
    ++R.Checked;
    if (!Reach[N])
      C.finding(VerifyFinding::Severity::Lint, "reachability", -1,
                static_cast<int32_t>(N),
                format("nonterminal '%s' is unreachable from the start "
                       "symbol",
                       F.Nts[N].Name.c_str()));
  }

  // Hot tokens that failed dead-token elision: a reachable pure token
  // nonterminal (single non-skip production, token head, empty tail)
  // whose value still materializes at every occurrence.
  for (size_t N = 0; N < NumNts; ++N) {
    if (!Reach[N] || N == F.Start || F.Nts[N].HasEps)
      continue;
    size_t NonSkip = 0;
    bool Pure = true;
    for (const FusedProd &P : F.Nts[N].Prods) {
      if (P.isSkip())
        continue;
      ++NonSkip;
      Pure &= P.FromTok != NoToken && P.Tail.empty();
    }
    if (NonSkip != 1 || !Pure)
      continue;
    ++R.Checked;
    if (!M.Nts[N].ValueFree)
      C.finding(VerifyFinding::Severity::Lint, "dead-token elision", -1,
                static_cast<int32_t>(N),
                format("pure token nonterminal '%s' still materializes "
                       "its token (some consumer observes it)",
                       F.Nts[N].Name.c_str()));
  }

  // First-byte dispatch overlaps: two productions of one nonterminal
  // whose lexemes share a first byte cannot be told apart by the entry
  // dispatch load alone — the scan stays on the shared-prefix slow
  // path. Informational: the machine is still deterministic.
  for (size_t N = 0; N < NumNts; ++N) {
    if (!Reach[N])
      continue;
    const FusedNt &Nt = F.Nts[N];
    std::vector<std::pair<size_t, SkipSet>> Firsts;
    for (size_t PI = 0; PI < Nt.Prods.size(); ++PI) {
      const FusedProd &P = Nt.Prods[PI];
      if (P.isSkip())
        continue;
      SkipSet First;
      for (int B = 0; B < 256; ++B)
        if (!Arena.isEmptyLang(
                Arena.derive(P.Re, static_cast<unsigned char>(B))))
          First.set(static_cast<unsigned char>(B));
      Firsts.push_back({PI, First});
    }
    for (size_t I = 0; I < Firsts.size(); ++I)
      for (size_t J = I + 1; J < Firsts.size(); ++J) {
        ++R.Checked;
        uint64_t Olap = 0;
        for (int W = 0; W < 4; ++W)
          Olap |= Firsts[I].second.Bits[W] & Firsts[J].second.Bits[W];
        if (Olap)
          C.finding(VerifyFinding::Severity::Lint, "first-byte dispatch",
                    -1, static_cast<int32_t>(N),
                    format("productions %zu and %zu of '%s' share "
                           "lexeme first bytes; entry dispatch cannot "
                           "separate them in one load",
                           Firsts[I].first, Firsts[J].first,
                           Nt.Name.c_str()));
      }
  }
}

VerifyReport flap::verifyFlapParser(const FlapParser &P,
                                    const VerifyOptions &Opts) {
  VerifyReport R = verifyCompiledParser(P.M, Opts);
  if (Opts.Lints && P.Def && P.Def->Re) {
    VerifyReport L;
    lintGrammar(P.F, *P.Def->Re, P.M, L);
    R.Checked += L.Checked;
    R.Dropped += L.Dropped;
    for (VerifyFinding &F : L.Findings)
      R.Findings.push_back(std::move(F));
  }
  return R;
}
