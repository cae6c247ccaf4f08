//===- engine/Compile.cpp - Staged parser compilation (Fig. 10) --------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "engine/Compile.h"

#include "engine/DispatchTier.h"
#include "engine/ScanKernel.h"
#include "engine/Verify.h"
#include "engine/Sink.h"
#include "support/StrUtil.h"

#include <cassert>
#include <map>
#include <set>
#include <unordered_map>

using namespace flap;

namespace {

/// A machine state: the memoization index of Fig. 10 — the current set of
/// ⟨regex, continuation⟩ pairs.
using ItemSet = std::vector<std::pair<RegexId, int32_t>>;

/// FNV-1a over the item pairs; states are interned once per distinct set,
/// so hashing replaces the former O(log n) ordered-map comparisons in the
/// staging loop (Table 2 compile time).
struct ItemSetHash {
  size_t operator()(const ItemSet &S) const {
    uint64_t H = 1469598103934665603ull;
    for (const auto &[Re, K] : S) {
      H = (H ^ static_cast<uint64_t>(static_cast<uint32_t>(Re))) *
          1099511628211ull;
      H = (H ^ static_cast<uint64_t>(static_cast<uint32_t>(K))) *
          1099511628211ull;
    }
    return static_cast<size_t>(H);
  }
};

} // namespace

Result<CompiledParser> flap::compileFused(RegexArena &Arena,
                                          const FusedGrammar &F,
                                          const ActionTable &Actions,
                                          size_t MaxStates) {
  return compileFused(Arena, F, Actions, nullptr, {}, MaxStates);
}

Result<CompiledParser> flap::compileFused(RegexArena &Arena,
                                          const FusedGrammar &F,
                                          const ActionTable &Actions,
                                          const TokenSet *Tokens,
                                          const std::vector<NtId> &Entries,
                                          size_t MaxStates) {
  // Packed-symbol width guards (see CompiledParser::packNt): NtId is
  // packed into 15 bits and a scan start state into 16 bits; the hot
  // tables store state ids as int16. A grammar or specialization bound
  // exceeding either width must fail gracefully here — a silent wrap
  // would corrupt every packed symbol the residual loop pops.
  if (F.numNts() > CompiledParser::MaxPackedNts)
    return Err(format("grammar has %zu nonterminals; packed symbols hold "
                      "an NtId in 15 bits (max %zu)",
                      F.numNts(), CompiledParser::MaxPackedNts));

  CompiledParser M;
  M.Start = F.Start;
  M.Actions = &Actions;
  bool HaveSkip = F.SkipRe != NoRegex && F.SkipRe != Arena.empty();

  // Continuations: one per fused production, plus one sentinel for the
  // trailing-skip matcher. Tails are flattened into one contiguous pool
  // so the residual loop never chases a per-continuation vector.
  auto AddCont = [&M](TokenId PushTok, const std::vector<Sym> &Tail,
                      bool SelfSkip) -> int32_t {
    int32_t ContId = static_cast<int32_t>(M.Conts.size());
    CompiledParser::Cont K;
    K.PushTok = PushTok;
    K.SelfSkip = SelfSkip;
    K.TailOff = static_cast<uint32_t>(M.TailPool.size());
    K.TailLen = static_cast<uint32_t>(Tail.size());
    M.TailPool.append(Tail.begin(), Tail.end());
    M.Conts.push_back(K);
    return ContId;
  };

  std::vector<ItemSet> NtStartItems(F.numNts());
  for (NtId N = 0; N < F.numNts(); ++N)
    for (const FusedProd &P : F.Nts[N].Prods) {
      bool SelfSkip = P.isSkip() && P.Tail.size() == 1 &&
                      P.Tail[0].isNt() && P.Tail[0].Idx == N;
      int32_t ContId = AddCont(P.FromTok, P.Tail, SelfSkip);
      NtStartItems[N].push_back({P.Re, ContId});
    }
  int32_t TrailCont = -1;
  if (HaveSkip)
    TrailCont = AddCont(NoToken, {}, false);

  // Memoized state generation — "there is at most one generated function
  // S_{F_n,k} for any particular F_n and k" (§5.4). Transitions are
  // computed per *byte* (rows of 256), each state deriving along its own
  // derivative-class partition (Owens et al.).
  std::unordered_map<ItemSet, int32_t, ItemSetHash> StateIds;
  std::vector<ItemSet> States;
  std::vector<int32_t> AcceptRaw; // pre-renumbering accepting cont or -1
  std::vector<int32_t> Rows;      // States.size() * 256
  bool Overflow = false, WidthOverflow = false;
  auto InternState = [&](ItemSet Items) -> int32_t {
    auto It = StateIds.find(Items);
    if (It != StateIds.end())
      return It->second;
    if (States.size() >= CompiledParser::MaxPackedStates) {
      // Harder limit than MaxStates: state ids must fit the int16 hot
      // table and the 16-bit packed start-state field regardless of how
      // generous the caller's specialization bound is.
      WidthOverflow = true;
      return 0;
    }
    if (States.size() >= MaxStates) {
      Overflow = true;
      return 0;
    }
    int32_t Id = static_cast<int32_t>(States.size());
    StateIds.emplace(Items, Id);
    States.push_back(std::move(Items));
    // Accepting continuation: the unique nullable item. Uniqueness holds
    // because the regexes of one nonterminal's productions are disjoint
    // (canonicalized lexer, §4) and items from different nonterminals
    // never share a state.
    int32_t Acc = -1;
    for (const auto &[Re, K] : States[Id]) {
      if (Arena.nullable(Re)) {
        assert(Acc < 0 && "fused production regexes overlap");
        Acc = K;
      }
    }
    AcceptRaw.push_back(Acc);
    Rows.resize(States.size() * 256, CompiledParser::Dead);
    return Id;
  };

  M.Nts.resize(F.numNts());
  M.NtNames.resize(F.numNts());
  M.NtExpected.resize(F.numNts());
  for (NtId N = 0; N < F.numNts(); ++N) {
    M.NtNames[N] = F.Nts[N].Name;
    if (Tokens)
      M.NtExpected[N] = F.Nts[N].expected(*Tokens);
    M.Nts[N].StartState = InternState(NtStartItems[N]);
    if (F.Nts[N].HasEps) {
      std::vector<ActionId> Chain;
      for (const Sym &S : F.Nts[N].EpsMarkers) {
        assert(!S.isNt() && "ε-production tail must be markers only");
        Chain.push_back(static_cast<ActionId>(S.Idx));
      }
      M.Nts[N].EpsChain = static_cast<int32_t>(M.EpsChains.size());
      M.EpsChains.push_back(std::move(Chain));
    }
  }
  if (HaveSkip)
    M.SkipState = InternState({{F.SkipRe, TrailCont}});

  // Pre-fuse ε-marker chains into micro-op programs: the hot loops run
  // one table-driven block per `back` continuation. Shared with the
  // artifact loader, which re-derives the programs from the serialized
  // chains (EpsProgram holds a live Value and cannot serialize).
  buildEpsPrograms(M, Actions);

  // Close the transition table: compute the derivative of every live
  // item once per derivative class of *this* state. All of this is
  // "static" work in the staging sense — it never runs during parsing.
  for (size_t W = 0; W < States.size(); ++W) {
    ItemSet Cur = States[W]; // copy: States grows below
    std::vector<CharSet> Parts = {CharSet::all()};
    for (const auto &[Re, K] : Cur)
      Parts = refinePartition(Parts, Arena.classes(Re));
    for (const CharSet &Part : Parts) {
      unsigned char Rep = Part.first();
      ItemSet Next;
      Next.reserve(Cur.size());
      for (const auto &[Re, K] : Cur) {
        RegexId D = Arena.derive(Re, Rep);
        if (D != Arena.empty())
          Next.push_back({D, K});
      }
      int32_t Dst = Next.empty() ? CompiledParser::Dead
                                 : InternState(std::move(Next));
      for (auto [Lo, Hi] : Part.ranges())
        for (int C = Lo; C <= Hi; ++C)
          Rows[W * 256 + C] = Dst;
    }
    if (WidthOverflow)
      return Err(format("staged parser exceeds %zu states; state ids no "
                        "longer fit the 16-bit transition tables and the "
                        "packed start-state field",
                        CompiledParser::MaxPackedStates));
    if (Overflow)
      return Err(format("staged parser exceeds %zu states", MaxStates));
  }

  // Dispatch-tier encoding (buildScanTables): renumber states into tiers
  // so a single transition load classifies a lexeme's entry (Compile.h
  // has the full range map). The coarse split — [0, SelfSkip) accept an
  // F2 whitespace continuation, [SelfSkip, Accept) a regular one, then
  // the rest — and each accepting tier is subdivided by the
  // state's *outgoing shape*: no transitions at all (terminal: the
  // lexeme is decided at the dispatch byte) or transitions confined to
  // the self-loop (pure run: the bulk-classified run is the rest of the
  // lexeme). Per-byte acceptance, the end-of-lexeme "rescan in place?"
  // decision and the entry dispatch all become register compares; the
  // dependent AcceptCont load leaves the per-byte loop entirely.
  const size_t NumStates = States.size();
  std::vector<dispatchtier::AcceptClass> Classes(NumStates);
  for (size_t S = 0; S < NumStates; ++S) {
    int32_t A = AcceptRaw[S];
    Classes[S] = A < 0 ? dispatchtier::AcceptClass::None
                 : M.Conts[A].SelfSkip ? dispatchtier::AcceptClass::SelfSkip
                                       : dispatchtier::AcceptClass::Regular;
  }
  // The int16 transition table: the MaxPackedStates guard keeps state
  // ids within range.
  static_assert(CompiledParser::MaxPackedStates <= (1u << 15),
                "int16 state space");
  const std::vector<int32_t> Perm = buildScanTables(M.Scan, Rows, Classes);
  M.AcceptCont.assign(NumStates, -1);
  for (size_t S = 0; S < NumStates; ++S)
    M.AcceptCont[static_cast<size_t>(Perm[S])] = AcceptRaw[S];
  for (auto &Nt : M.Nts)
    Nt.StartState = Perm[Nt.StartState];
  if (M.SkipState >= 0)
    M.SkipState = Perm[M.SkipState];

  // Packed symbol pools + state-indexed accept metadata. Stack entries
  // and tails carry the nonterminal's start state inline, so the
  // residual loop pops work items without touching NtInfo.
  assert(F.numNts() <= CompiledParser::MaxPackedNts &&
         "packed NtId overflows 15 bits"); // guarded at entry
  assert(NumStates <= CompiledParser::MaxPackedStates &&
         "packed start state overflows 16 bits"); // guarded in InternState
  //===------------------------------------------------------------===//
  // Dead-token elision.
  //
  // A production's pushed token is often consumed by a marker that
  // provably ignores it (a Select of another argument, an integer
  // accumulate, a constant). The value stack is fully static under the
  // width discipline, so the consuming marker and the token's argument
  // position in it are computable at staging time; where the consumer
  // ignores the position, the token is never materialized and the
  // occurrence's op is rewritten with that argument compiled out.
  //
  // Two source kinds are tracked:
  //   - the production's own pushed token, consumed by a marker later
  //     in the same tail;
  //   - a *pure token nonterminal* (single non-skip production, token
  //     head, empty tail — e.g. the nonterminal holding a closing
  //     bracket): its value is a token that some enclosing production's
  //     marker consumes. Elidable only when every occurrence across the
  //     grammar ignores it and it is not a declared entry (F.Start or
  //     one of \p Entries), whose value is a parse result; the
  //     nonterminal is then ValueFree.
  //
  // Phase A computes each nonterminal's net stack effect and minimum
  // stack excursion (how far below its entry level its markers reach),
  // so tails containing arbitrary nonterminals simulate exactly.
  //===------------------------------------------------------------===//

  const size_t NumNts = F.numNts();
  std::vector<int32_t> NtNet(NumNts, 0), NtMinD(NumNts, 0);
  std::vector<uint8_t> NetKnown(NumNts, 0), NtUsable(NumNts, 0);
  {
    // Phase A1: net effects, grounded worklist (no optimistic seeds: a
    // nonterminal's net is only derived from a production whose
    // children are already determined — cyclic nonterminals with no
    // grounded production never complete a parse, so their positions
    // are never observable and they simply stay unknown).
    auto WalkNet = [&](const FusedProd &P, int32_t &Net) {
      int32_t D = P.isSkip() ? 0 : 1;
      for (const Sym &S : P.Tail) {
        if (S.isNt()) {
          if (!NetKnown[S.Idx])
            return false;
          D += NtNet[S.Idx];
        } else {
          D += 1 - Actions.get(static_cast<ActionId>(S.Idx)).Arity;
        }
      }
      Net = D;
      return true;
    };
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (NtId N = 0; N < NumNts; ++N) {
        if (NetKnown[N])
          continue;
        const FusedNt &Nt = F.Nts[N];
        int32_t Net;
        bool Got = false;
        for (const FusedProd &P : Nt.Prods) {
          if (P.isSkip())
            continue; // F2 re-enters self: no information
          if (WalkNet(P, Net)) {
            Got = true;
            break;
          }
        }
        if (!Got && Nt.HasEps) {
          // The ε fallback: an empty chain pushes unit (+1); otherwise
          // the markers' net. (FromTok is NoToken, so WalkNet starts
          // from depth 0 as required.)
          FusedProd E;
          E.Tail = Nt.EpsMarkers;
          Got = WalkNet(E, Net);
          if (Got && E.Tail.empty())
            Net = 1;
        }
        if (Got) {
          NtNet[N] = Net;
          NetKnown[N] = 1;
          Changed = true;
        }
      }
    }
    // Consistency: every walkable production of a known nonterminal
    // must agree with its net (ill-typed value flow otherwise); a
    // disagreement poisons the nonterminal for elision purposes.
    for (NtId N = 0; N < NumNts; ++N) {
      if (!NetKnown[N])
        continue;
      bool Ok = true;
      const FusedNt &Nt = F.Nts[N];
      int32_t Net;
      for (const FusedProd &P : Nt.Prods)
        if (!P.isSkip() && WalkNet(P, Net) && Net != NtNet[N])
          Ok = false;
      if (Nt.HasEps) {
        FusedProd E;
        E.Tail = Nt.EpsMarkers;
        if (WalkNet(E, Net) &&
            (E.Tail.empty() ? 1 : Net) != NtNet[N])
          Ok = false;
      }
      NtUsable[N] = Ok;
    }
    // Phase A2: minimum excursion below entry level, iterated downward
    // to a fixpoint over the usable nonterminals (capped: a runaway
    // means pathological value flow — poison instead of looping).
    auto WalkMin = [&](const FusedProd &P, bool Eps, int32_t &MinD) {
      int32_t D = (!Eps && !P.isSkip()) ? 1 : 0;
      int32_t Mn = 0;
      for (const Sym &S : P.Tail) {
        if (S.isNt()) {
          if (!NtUsable[S.Idx])
            return false;
          Mn = std::min(Mn, D + NtMinD[S.Idx]);
          D += NtNet[S.Idx];
        } else {
          int A = Actions.get(static_cast<ActionId>(S.Idx)).Arity;
          Mn = std::min(Mn, D - A);
          D += 1 - A;
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
        if (!NtUsable[N])
          continue;
        const FusedNt &Nt = F.Nts[N];
        int32_t Mn = 0;
        bool Ok = true;
        int32_t D;
        for (const FusedProd &P : Nt.Prods) {
          if (P.isSkip())
            continue;
          if (!WalkMin(P, false, D))
            Ok = false;
          else
            Mn = std::min(Mn, D);
        }
        if (Nt.HasEps) {
          FusedProd E;
          E.Tail = Nt.EpsMarkers;
          if (!WalkMin(E, true, D))
            Ok = false;
          else
            Mn = std::min(Mn, D);
        }
        if (!Ok || Mn < -64) {
          NtUsable[N] = 0;
          Changed = true;
        } else if (Mn < NtMinD[N]) {
          NtMinD[N] = Mn;
          Changed = true;
        }
      }
    }
    if (Rounds >= 64)
      std::fill(NtUsable.begin(), NtUsable.end(), 0);
  }

  //===------------------------------------------------------------===//
  // Recovery sync sets (sibling fixpoint of the elision analysis
  // above, over the same fused productions).
  //
  // LAST(n) — the tokens that can end a completed parse of n — is a
  // grounded fixpoint like Phase A's net-effect walk: each non-skip
  // production's tail is walked right to left, unioning LAST of each
  // trailing nonterminal and stopping at the first one that cannot
  // derive ε (HasEps is exact nullability in DGNF: every production
  // starts with a non-nullable lexer regex); a walk that clears the
  // whole tail adds the production's own head token. A LAST token
  // contributes a *sync byte* when its lexer rule is a short literal
  // (≤ 4 bytes, decided by walking the unique live byte of each
  // derivative) whose final byte is structural (non-alphanumeric):
  // NDJSON's '}' and ']', csv's "\r\n", sexp's ')', pgn's '*' — while
  // 'true'/'null'/"1-0" are rejected, since resynchronizing at a word
  // tail inside arbitrary garbage is noise. When the skip language
  // contains '\n', the newline joins every set: records in any
  // line-oriented corpus end at one. The recovery drivers skip to the
  // next sync byte after a failure and re-enter the entry nonterminal
  // just past it (engine/README.md, "Error recovery").
  //===------------------------------------------------------------===//
  M.SyncSpecs.resize(NumNts);
  {
    // Representative lexer-rule regex per token (F1 inlines the same
    // canonical regex at every occurrence of a token).
    std::map<TokenId, RegexId> TokRe;
    for (NtId N = 0; N < NumNts; ++N)
      for (const FusedProd &P : F.Nts[N].Prods)
        if (!P.isSkip())
          TokRe.emplace(P.FromTok, P.Re);

    std::vector<std::set<TokenId>> LastTok(NumNts);
    bool Grew = true;
    while (Grew) {
      Grew = false;
      for (NtId N = 0; N < NumNts; ++N)
        for (const FusedProd &P : F.Nts[N].Prods) {
          if (P.isSkip())
            continue;
          bool Open = true; // can the walk still reach this position?
          for (size_t J = P.Tail.size(); J-- > 0 && Open;) {
            const Sym &S = P.Tail[J];
            if (!S.isNt())
              continue; // markers consume no input
            for (TokenId T : LastTok[S.Idx])
              Grew |= LastTok[N].insert(T).second;
            Open = F.Nts[S.Idx].HasEps;
          }
          if (Open)
            Grew |= LastTok[N].insert(P.FromTok).second;
        }
    }

    // L(Re) == {Lit} for one short literal: at every derivative step
    // there must be exactly one live byte. classes(Re) partitions the
    // alphabet with the derivative constant per class, so "one live
    // class of size one" is exact, not approximate.
    auto ShortLiteral = [&Arena](RegexId Re, std::string &Lit) {
      Lit.clear();
      RegexId R = Re;
      for (;;) {
        int Live = -1;
        std::vector<CharSet> Parts = Arena.classes(R); // copy: memo moves
        for (const CharSet &Part : Parts) {
          unsigned char B = Part.first();
          if (Arena.isEmptyLang(Arena.derive(R, B)))
            continue;
          if (Live >= 0 || Part.size() != 1)
            return false; // branching: more than one string
          Live = B;
        }
        if (Arena.nullable(R))
          // Live >= 0 would make Lit a proper prefix of a longer match.
          return Live < 0 && !Lit.empty();
        if (Live < 0 || Lit.size() >= 4)
          return false; // dead end, or longer than the literal cap
        Lit.push_back(static_cast<char>(Live));
        R = Arena.derive(R, static_cast<unsigned char>(Live));
      }
    };
    auto IsAlnum = [](unsigned char B) {
      return (B >= '0' && B <= '9') || (B >= 'a' && B <= 'z') ||
             (B >= 'A' && B <= 'Z');
    };
    const bool SkipHasNl =
        HaveSkip && !Arena.isEmptyLang(Arena.derive(F.SkipRe, '\n'));
    std::string Lit;
    for (NtId N = 0; N < NumNts; ++N) {
      CompiledParser::SyncSpec &SS = M.SyncSpecs[N];
      // A single-byte literal makes its byte a standalone sync byte. A
      // multi-byte literal (csv's "\r\n") contributes its last byte too,
      // but only as the tail of the full sequence: a bare '\n' with no
      // '\r' before it can sit inside the very token class being
      // recovered from, so resuming there would re-fail immediately.
      std::set<unsigned char> Standalone;
      std::set<std::string> SeqLits;
      for (TokenId T : LastTok[N]) {
        if (!ShortLiteral(TokRe[T], Lit))
          continue;
        unsigned char B = static_cast<unsigned char>(Lit.back());
        if (IsAlnum(B))
          continue;
        SS.Sync.set(B);
        if (Lit.size() == 1)
          Standalone.insert(B);
        else
          SeqLits.insert(Lit);
      }
      if (SkipHasNl) {
        SS.Sync.set('\n');
        Standalone.insert('\n');
      }
      for (const std::string &Q : SeqLits)
        if (!Standalone.count(static_cast<unsigned char>(Q.back()))) {
          SS.SeqOnly.set(static_cast<unsigned char>(Q.back()));
          SS.Seqs.push_back(Q);
        }
      SS.SeqOnly.finalize();
      SS.HasSync = !SS.Sync.empty();
      SS.Sync.finalize();
      for (int C = 0; C < 256; ++C)
        if (!SS.Sync.test(static_cast<unsigned char>(C)))
          SS.NotSync.set(static_cast<unsigned char>(C));
      SS.NotSync.finalize();
    }
  }

  // Pure token nonterminals: value is exactly one token.
  std::vector<uint8_t> PureTokNt(NumNts, 0);
  for (NtId N = 0; N < NumNts; ++N) {
    if (F.Nts[N].HasEps)
      continue;
    int NonSkip = 0;
    bool Pure = true;
    for (const FusedProd &P : F.Nts[N].Prods) {
      if (P.isSkip())
        continue;
      ++NonSkip;
      Pure &= P.FromTok != NoToken && P.Tail.empty();
    }
    PureTokNt[N] = Pure && NonSkip == 1;
  }

  // Phase B: walk every executable continuation tail with an abstract
  // stack of value sources, resolving each source to the marker
  // occurrence and argument position that consumes it (or "escapes").
  struct SrcRef {
    uint32_t Cont = 0, TailIdx = 0; ///< consuming marker occurrence
    int16_t Pos = 0;                ///< argument position in it
    bool Consumed = false, Escaped = false;
  };
  // Per continuation: the production's own token.
  std::vector<SrcRef> OwnTok(M.Conts.size());
  // Per pure nonterminal: one SrcRef per occurrence in any tail.
  std::vector<std::vector<SrcRef>> PureOccs(NumNts);
  // Which continuation is a pure nonterminal's single F1 production.
  std::vector<int32_t> PureCont(NumNts, -1);
  {
    struct Slot {
      uint8_t Kind; // 0 opaque, 1 own token, 2 pure-nt occurrence
      NtId N = NoNt;
      uint32_t Occ = 0;
    };
    for (size_t C = 0; C < M.Conts.size(); ++C) {
      const CompiledParser::Cont &K = M.Conts[C];
      if (K.SelfSkip)
        continue; // rescanned in place; the tail never executes
      std::vector<Slot> Stk;
      if (K.PushTok != NoToken)
        Stk.push_back({1, NoNt, 0});
      auto EscapeTop = [&](size_t Count) {
        for (size_t I = 0; I < Count && !Stk.empty(); ++I) {
          Slot S = Stk.back();
          Stk.pop_back();
          if (S.Kind == 1)
            OwnTok[C].Escaped = true;
          else if (S.Kind == 2)
            PureOccs[S.N][S.Occ].Escaped = true;
        }
      };
      bool Poisoned = false;
      for (uint32_t J = 0; J < K.TailLen; ++J) {
        const Sym &S = M.TailPool[K.TailOff + J];
        if (Poisoned) {
          // Unanalyzable region: pure-nt occurrences here still
          // materialize at runtime, so they must count as escaped.
          if (S.isNt() && PureTokNt[S.Idx])
            PureOccs[S.Idx].push_back(
                {0, 0, 0, /*Consumed=*/false, /*Escaped=*/true});
          continue;
        }
        if (S.isNt()) {
          if (PureTokNt[S.Idx]) {
            PureOccs[S.Idx].push_back({});
            Stk.push_back(
                {2, S.Idx,
                 static_cast<uint32_t>(PureOccs[S.Idx].size() - 1)});
          } else if (NtUsable[S.Idx]) {
            // The nonterminal's markers may reach below its entry:
            // everything within that excursion is consumed opaquely. It
            // then leaves Reach + Net opaque values on top (Net ≥ MinD,
            // so the count is never negative).
            size_t Reach = static_cast<size_t>(-NtMinD[S.Idx]);
            EscapeTop(Reach);
            int32_t Repush = static_cast<int32_t>(Reach) + NtNet[S.Idx];
            for (int32_t I = 0; I < Repush; ++I)
              Stk.push_back({0, NoNt, 0});
          } else {
            // Unknown stack behaviour: everything live escapes, and the
            // rest of the tail is unanalyzable.
            EscapeTop(Stk.size());
            Poisoned = true;
          }
        } else {
          int A = Actions.get(static_cast<ActionId>(S.Idx)).Arity;
          for (int I = 0; I < A; ++I) {
            int16_t Pos = static_cast<int16_t>(A - 1 - I);
            if (Stk.empty())
              break; // deeper args belong to an outer frame
            Slot T = Stk.back();
            Stk.pop_back();
            SrcRef *R = T.Kind == 1   ? &OwnTok[C]
                        : T.Kind == 2 ? &PureOccs[T.N][T.Occ]
                                      : nullptr;
            if (R) {
              R->Cont = static_cast<uint32_t>(C);
              R->TailIdx = J;
              R->Pos = Pos;
              R->Consumed = true;
            }
          }
          Stk.push_back({0, NoNt, 0});
        }
      }
      EscapeTop(Stk.size()); // production ends: survivors escape upward
    }
    for (NtId N = 0; N < NumNts; ++N) {
      if (!PureTokNt[N])
        continue;
      // The single non-skip production's continuation (AddCont order
      // mirrors the production order per nonterminal).
      int32_t CI = 0;
      for (NtId NN = 0; NN < N; ++NN)
        CI += static_cast<int32_t>(F.Nts[NN].Prods.size());
      for (const FusedProd &P : F.Nts[N].Prods) {
        if (!P.isSkip()) {
          PureCont[N] = CI;
          break;
        }
        ++CI;
      }
    }
  }

  // Phase C: approve sources whose consumer ignores them; accumulate
  // removed argument positions per marker occurrence.
  std::map<std::pair<uint32_t, uint32_t>, std::vector<int16_t>> Removed;
  std::vector<TokenId> ContParseTok(M.Conts.size());
  for (size_t C = 0; C < M.Conts.size(); ++C)
    ContParseTok[C] = M.Conts[C].PushTok;
  auto CanIgnore = [&](uint32_t C, uint32_t J, int16_t P) {
    const Sym &S = M.TailPool[M.Conts[C].TailOff + J];
    MicroOp Op = Actions.micro()[S.Idx];
    switch (Op.K) {
    case MicroOp::MUnit:
    case MicroOp::MInt:
    case MicroOp::MBool:
      return true;
    case MicroOp::MSelect:
    case MicroOp::MAddImm:
    case MicroOp::MTokInt:
      return Op.Sel != P;
    case MicroOp::MAddArgs:
    case MicroOp::MMaxAcc:
      return Op.Sel != P && Op.Sel2 != P;
    default:
      return false;
    }
  };
  for (size_t C = 0; C < M.Conts.size(); ++C) {
    const SrcRef &R = OwnTok[C];
    if (M.Conts[C].PushTok == NoToken || !R.Consumed || R.Escaped)
      continue;
    if (!CanIgnore(R.Cont, R.TailIdx, R.Pos))
      continue;
    Removed[{R.Cont, R.TailIdx}].push_back(R.Pos);
    ContParseTok[C] = NoToken;
  }
  std::vector<uint8_t> Declared(NumNts, 0);
  if (F.Start != NoNt)
    Declared[F.Start] = 1;
  for (NtId N : Entries) {
    assert(N < NumNts && "declared entry out of range");
    Declared[N] = 1;
  }
  for (NtId N = 0; N < NumNts; ++N) {
    if (!PureTokNt[N] || PureCont[N] < 0 || Declared[N])
      continue;
    if (PureOccs[N].empty())
      continue; // unreachable; leave it alone
    bool Ok = true;
    for (const SrcRef &R : PureOccs[N])
      Ok &= R.Consumed && !R.Escaped && CanIgnore(R.Cont, R.TailIdx, R.Pos);
    if (!Ok)
      continue;
    for (const SrcRef &R : PureOccs[N])
      Removed[{R.Cont, R.TailIdx}].push_back(R.Pos);
    ContParseTok[PureCont[N]] = NoToken;
    M.Nts[N].ValueFree = true;
  }

  // Phase D: pack the pools, rewriting marker occurrences with their
  // removed argument positions compiled out.
  std::vector<uint32_t> ContPOff(M.Conts.size()), ContPLen(M.Conts.size());
  std::vector<uint32_t> ContNOff(M.Conts.size()), ContNLen(M.Conts.size());
  for (size_t C = 0; C < M.Conts.size(); ++C) {
    const CompiledParser::Cont &K = M.Conts[C];
    ContPOff[C] = static_cast<uint32_t>(M.PackedPool.size());
    ContNOff[C] = static_cast<uint32_t>(M.NtPool.size());
    for (uint32_t J = 0; J < K.TailLen; ++J) {
      const Sym &S = M.TailPool[K.TailOff + J];
      if (S.isNt()) {
        M.PackedPool.push_back(M.packNt(S.Idx));
        M.NtPool.push_back(M.packNt(S.Idx));
      } else {
        MicroOp Op = Actions.micro()[S.Idx];
        if (Op.K == MicroOp::MSlow)
          Op.Imm = static_cast<int64_t>(S.Idx); // ActionId for dispatch
        auto It = Removed.find({static_cast<uint32_t>(C), J});
        if (It != Removed.end()) {
          const std::vector<int16_t> &Gone = It->second;
          auto Shift = [&Gone](int16_t Sel) {
            int16_t D = 0;
            for (int16_t G : Gone)
              D += G < Sel;
            return static_cast<int16_t>(Sel - D);
          };
          Op.Sel = Shift(Op.Sel);
          Op.Sel2 = Shift(Op.Sel2);
          Op.Arity = static_cast<uint8_t>(Op.Arity - Gone.size());
          if (Op.K == MicroOp::MSelect && Op.Arity == 1 && Op.Sel == 0)
            Op.K = MicroOp::MNop;
          Op.Flags |= MicroOp::FRewritten;
        }
        if (Op.K == MicroOp::MNop)
          continue; // identity occurrence: nothing to execute at all
        uint32_t OpIdx = static_cast<uint32_t>(M.OpPool.size());
        assert((OpIdx & CompiledParser::ActBit) == 0 &&
               "op pool index collides with the packed-symbol tag bit");
        M.OpPool.push_back(Op);
        M.OpActs.push_back(static_cast<ActionId>(S.Idx));
        M.PackedPool.push_back(CompiledParser::ActBit | OpIdx);
      }
    }
    ContPLen[C] = static_cast<uint32_t>(M.PackedPool.size()) - ContPOff[C];
    ContNLen[C] = static_cast<uint32_t>(M.NtPool.size()) - ContNOff[C];
  }
  // Dispatch-level accept-metadata fusion: one packed 64-bit entry per
  // accepting state (token | tail length | tail offset, Compile.h has
  // the layout) so the drivers resolve a finished lexeme — notably a
  // terminal-accept dispatch entry — with a single indexed load. The
  // packing widths get the same graceful-failure treatment as the
  // packed symbols: no silent wrap.
  for (size_t C = 0; C < M.Conts.size(); ++C) {
    if (ContParseTok[C] != NoToken &&
        static_cast<uint32_t>(ContParseTok[C]) >= CompiledParser::MetaNoTok)
      return Err(format("token id %d exceeds the 16-bit packed "
                        "accept-metadata width",
                        ContParseTok[C]));
    if (ContPLen[C] > 0xffffu || ContNLen[C] > 0xffffu)
      return Err(format("continuation tail of %u symbols exceeds the "
                        "16-bit packed accept-metadata width",
                        ContPLen[C]));
  }
  if (M.OpPool.size() > CompiledParser::MaxOps)
    return Err(format("%zu marker occurrences exceed the 30-bit event id "
                      "width (max %zu)",
                      M.OpPool.size(), CompiledParser::MaxOps));
  if (M.PackedPool.size() > 0xffffffffull)
    return Err("packed symbol pool exceeds the 32-bit accept-metadata "
               "offset width");
  const uint64_t NoMeta = CompiledParser::packMeta(NoToken, 0, 0);
  M.AccMeta.assign(M.Scan.Tiers.Accept, NoMeta);
  M.AccNtMeta.assign(M.Scan.Tiers.Accept, NoMeta);
  for (size_t S = 0; S < NumStates; ++S) {
    int32_t A = AcceptRaw[S];
    if (A < 0)
      continue;
    int32_t NewS = Perm[S];
    M.AccMeta[NewS] =
        CompiledParser::packMeta(ContParseTok[A], ContPLen[A], ContPOff[A]);
    M.AccNtMeta[NewS] =
        CompiledParser::packMeta(NoToken, ContNLen[A], ContNOff[A]);
  }

  // Post-compilation audit (engine/Verify.h): in assert builds — and
  // everywhere under -DFLAP_VERIFY_TABLES — re-prove every invariant the
  // hot loops assume before the tables can reach an engine entry point.
  // A construction bug fails the compile with a structured finding
  // instead of corrupting a parse.
#if !defined(NDEBUG) || defined(FLAP_VERIFY_TABLES)
  {
    VerifyOptions VO;
    VO.Lints = false;
    VerifyReport VR = verifyCompiledParser(M, VO);
    if (!VR.ok()) {
      for (const VerifyFinding &VF : VR.Findings)
        if (VF.Sev == VerifyFinding::Severity::Error)
          return Err(format("compileFused produced inconsistent tables: %s",
                            VF.message().c_str()));
    }
  }
#endif
  return M;
}

namespace {

//===--------------------------------------------------------------------===//
// The error budget: failure → diagnostic → resume point
//===--------------------------------------------------------------------===//

constexpr size_t Npos = static_cast<size_t>(-1);

/// Charges \p D (line/column already stamped) against the budget and
/// appends it to \p Out. Returns where to re-enter entry \p R: Npos when
/// the parse ends here (Fatal), Input.size() for SkipToEnd, else the
/// resync point just past a sync byte.
size_t recordFailure(const CompiledParser &M, NtId R, std::string_view Input,
                     ParseDiagnostic D, bool CanResync, ErrorBudget &B,
                     ParseOutcome &Out) {
  const CompiledParser::SyncSpec &SS = M.SyncSpecs[R];
  size_t Q = Npos;
  if (!B.charge(D, CanResync && SS.HasSync, Out.Truncated)) {
    size_t P = static_cast<size_t>(D.Off);
    Q = M.findResume(R, Input.data(), P, Input.size());
    D.Act = ParseDiagnostic::Action::Resync;
    if (Q == CompiledParser::NoResume) {
      // No viable sync point before the end (a sync byte as the very
      // last byte included: there is nothing after it to re-enter on).
      D.Act = ParseDiagnostic::Action::SkipToEnd;
      Q = Input.size();
    }
    D.ResumeOff = Q;
  }
  Out.Errors.push_back(std::move(D));
  return Q;
}

//===--------------------------------------------------------------------===//
// The whole-buffer and record loops
//===--------------------------------------------------------------------===//

/// One whole-buffer input: parse full segments of the entry nonterminal,
/// and after each failure record a ParseDiagnostic, skip to the next
/// viable sync point and re-enter the machine there while the budget
/// lasts. A trailing-input failure counts as a completed segment (its
/// value is delivered) followed by garbage. Line/column come from one
/// LineTracker pass, so every byte is scanned at most once no matter how
/// many errors accumulate.
template <typename Tab, typename SinkT>
void wholeLoop(const CompiledParser &M, NtId R, std::string_view Input,
               std::vector<uint32_t> &Stack, SinkT &Sk, ErrorBudget B,
               ParseOutcome &Out) {
  LineTracker LT;
  size_t Q = 0;
  for (;;) {
    Stack.clear();
    Stack.push_back(M.packNt(R));
    size_t Pos = Q;
    bool Ok = driveImpl<Tab>(M, Input, Pos, Stack, Sk) == DriveStatus::Done;
    if (Ok && matchTrailingSkipT<Tab>(M, Input, Pos) == DriveStatus::Fail) {
      Sk.failTrailing(Pos);
      Ok = false;
    }
    Sk.endSegment(Ok || Sk.failedTrailing(), Out);
    if (Ok)
      return;
    ParseDiagnostic D = failureOf(M, Sk);
    LT.locate(Input.data(), 0, D);
    Q = recordFailure(M, R, Input, std::move(D), true, B, Out);
    if (Q >= Input.size())
      return; // Fatal or SkipToEnd (a resync point is never the end)
  }
}

/// One record run: complete runs of \p R, each entered at a
/// skip-normalized offset, while the entry offset stays below \p Limit.
/// A failed record resumes at the next viable sync point (scanning the
/// FULL input, so a resume may land past Limit) while the budget lasts.
template <typename Tab, typename SinkT>
RecordRun recordLoop(const CompiledParser &M, NtId R, std::string_view Input,
                     size_t Pos, size_t Limit, std::vector<uint32_t> &Stack,
                     SinkT &Sk, ErrorBudget B, ParseOutcome &Out) {
  RecordRun RR;
  const size_t Len = Input.size();
  LineTracker LT{Pos, Pos, 1};
  size_t P = Pos;
  matchTrailingSkipT<Tab>(M, Input, P);
  RR.First = P;
  for (;;) {
    if (P == Len) {
      RR.S = RecordRun::Stop::End;
      RR.Next = Len;
      return RR;
    }
    if (P >= Limit) {
      RR.S = RecordRun::Stop::AtLimit;
      RR.Next = P;
      return RR;
    }
    // A record ends where the entry's run completes: no whole-input
    // check, and the skip input after it is absorbed below.
    Stack.clear();
    Stack.push_back(M.packNt(R));
    size_t End = P;
    const bool Ok =
        driveImpl<Tab>(M, Input, End, Stack, Sk) == DriveStatus::Done;
    // A nullable record nonterminal that consumed nothing would loop
    // forever at P: a grammar-shape error, Fatal in every mode.
    const bool Empty = Ok && End == P;
    Sk.endSegment(Ok && !Empty, Out);
    if (Ok && !Empty) {
      ++RR.NumRecords;
      P = End;
      matchTrailingSkipT<Tab>(M, Input, P);
      continue;
    }
    // A record run never fails trailing; this is a parse failure.
    ParseDiagnostic D;
    if (Empty) {
      D.K = ParseDiagnostic::Kind::EmptyRecord;
      D.Off = P;
      D.Nt = R;
      D.Where = M.NtNames[R];
    } else {
      D = failureOf(M, Sk);
    }
    LT.locate(Input.data(), 0, D);
    const size_t Q = recordFailure(M, R, Input, std::move(D), !Empty, B, Out);
    if (Q == Npos) {
      RR.S = RecordRun::Stop::Error;
      RR.Next = Len;
      return RR;
    }
    P = Q;
    matchTrailingSkipT<Tab>(M, Input, P);
  }
}

/// Builds the request's sink once and hands it, with the table width
/// (scankernel::withWidth), to \p F — the one runtime mode and width
/// switch per call.
template <typename Fn>
decltype(auto) withSink(const CompiledParser &M, ParseMode Mode,
                        ParseScratch &Scratch, Fn &&F) {
  auto Drive = [&](auto &Sk) {
    return scankernel::withWidth(M.Scan,
                                 [&](auto Width) { return F(Sk, Width); });
  };
  switch (Mode) {
  case ParseMode::Values: {
    Scratch.reset();
    ValueSink Sk(M, Scratch);
    return Drive(Sk);
  }
  case ParseMode::Events: {
    EventSink Sk;
    return Drive(Sk);
  }
  case ParseMode::Recognize:
    break;
  }
  RecognizeSink Sk;
  return Drive(Sk);
}

/// The span limit, checked where a core admits an input: a values
/// request past MaxSpanBytes would wrap every later token span, so it
/// gets one Fatal LimitExceeded diagnostic instead and nothing is
/// parsed. Recognize and events requests are unlimited.
bool admitLength(const ParseRequest &Req, std::string_view Input,
                 ParseOutcome &Out) {
  if (Req.Mode != ParseMode::Values || Input.size() <= MaxSpanBytes)
    return true;
  Out.Errors.emplace_back().K = ParseDiagnostic::Kind::LimitExceeded;
  Out.Truncated = true;
  return false;
}

/// The strict wrappers' error: the outcome's first diagnostic.
Err strictError(const ParseOutcome &O) { return Err(O.Errors[0].message()); }

Result<Value> strictValue(ParseOutcome &O) {
  if (!O.Errors.empty())
    return strictError(O);
  return std::move(O.Values[0]);
}

} // namespace

ParseDiagnostic CompiledParser::entryRefusal(NtId N) const {
  ParseDiagnostic D;
  D.K = ParseDiagnostic::Kind::Entry;
  D.Act = ParseDiagnostic::Action::Fatal;
  D.Nt = N;
  D.Where = NtNames[N];
  return D;
}

NtId CompiledParser::admit(const ParseRequest &Req, ParseOutcome &Out) const {
  const NtId R = Req.Entry == NoNt ? Start : Req.Entry;
  assert(R < Nts.size() && "entry nonterminal out of range");
  if (Req.Mode != ParseMode::Recognize && Nts[R].ValueFree) {
    Out.Errors.push_back(entryRefusal(R));
    Out.Truncated = true;
    return NoNt;
  }
  return R;
}

size_t CompiledParser::findResume(NtId R, const char *S, size_t &P,
                                  size_t Len, const char *Pre,
                                  size_t PreLen) const {
  // The bulk sync scan reuses skipRun over the complement set. The
  // decision at a sync byte J depends only on the bytes around it, so a
  // stream can restart the scan at J once S[J+1] arrives.
  const SyncSpec &SS = SyncSpecs[R];
  for (;;) {
    const size_t J = skipRun(SS.NotSync, S, P, Len); // next sync byte
    if (J + 1 >= Len) {
      P = J;
      return NoResume;
    }
    if (SS.admissible(S, J, Pre, PreLen) &&
        entryLive(R, static_cast<unsigned char>(S[J + 1])))
      return J + 1;
    P = J + 1;
  }
}

void TextArena::grow(size_t N) {
  // Geometric blocks: an outcome drained after every 4 KiB feed costs one
  // small allocation, a never-drained stream O(log size) of them.
  constexpr size_t MinBlock = 4096, MaxBlock = size_t(1) << 20;
  NextBlock = NextBlock ? std::min(NextBlock * 2, MaxBlock) : MinBlock;
  const size_t Size = std::max(N, NextBlock);
  Blocks.emplace_back(new char[Size]);
  Cur = Blocks.back().get();
  Left = Size;
}

//===--------------------------------------------------------------------===//
// The request cores
//===--------------------------------------------------------------------===//

bool CompiledParser::run(const ParseRequest &Req, std::string_view Input,
                         ParseScratch &Scratch, ParseOutcome &Out) const {
  const size_t Errs = Out.Errors.size();
  const NtId R = admit(Req, Out);
  if (R == NoNt || !admitLength(Req, Input, Out))
    return false;
  withSink(*this, Req.Mode, Scratch, [&](auto &Sk, auto Width) {
    Sk.bind(Input, Out, Req.User);
    wholeLoop<decltype(Width)>(*this, R, Input, Scratch.Stack, Sk,
                               ErrorBudget(Req.MaxErrors), Out);
  });
  return Out.Errors.size() == Errs;
}

void CompiledParser::runBatch(const ParseRequest &Req,
                              const std::string_view *Inputs, size_t N,
                              ParseScratch &Scratch,
                              std::vector<ParseOutcome> &Out,
                              void *const *Users) const {
  Out.resize(N);
  for (ParseOutcome &O : Out)
    O.clear();
  if (!N)
    return;
  const NtId R = admit(Req, Out[0]);
  if (R == NoNt) {
    for (size_t I = 1; I < N; ++I)
      Out[I] = Out[0];
    return;
  }
  // The serving loop: entry check, table width and sink (with its
  // pool-handle refcount) are hoisted out; the scratch's stacks and pool
  // arena stay warm across inputs, so the per-input set-up is a bind.
  // Earlier values stay valid while later inputs run — pooled nodes
  // recycle only once their value dies, and escaped values pin the
  // pages.
  withSink(*this, Req.Mode, Scratch, [&](auto &Sk, auto Width) {
    for (size_t I = 0; I < N; ++I) {
      if (!admitLength(Req, Inputs[I], Out[I]))
        continue;
      Sk.bind(Inputs[I], Out[I], Users ? Users[I] : Req.User);
      wholeLoop<decltype(Width)>(*this, R, Inputs[I], Scratch.Stack, Sk,
                                 ErrorBudget(Req.MaxErrors), Out[I]);
    }
  });
}

RecordRun CompiledParser::runRecords(const ParseRequest &Req,
                                     std::string_view Input, size_t Pos,
                                     size_t Limit, ParseScratch &Scratch,
                                     ParseOutcome &Out) const {
  const NtId R = admit(Req, Out);
  if (R == NoNt || !admitLength(Req, Input, Out)) {
    RecordRun RR;
    RR.S = RecordRun::Stop::Error;
    RR.First = RR.Next = Pos;
    return RR;
  }
  return withSink(*this, Req.Mode, Scratch, [&](auto &Sk, auto Width) {
    Sk.bind(Input, Out, Req.User);
    return recordLoop<decltype(Width)>(*this, R, Input, Pos, Limit,
                                       Scratch.Stack, Sk,
                                       ErrorBudget(Req.MaxErrors), Out);
  });
}

//===--------------------------------------------------------------------===//
// Strict wrappers
//===--------------------------------------------------------------------===//

Result<Value> CompiledParser::parse(std::string_view Input,
                                    ParseScratch &Scratch, void *User) const {
  ParseRequest Req;
  Req.User = User;
  ParseOutcome O;
  run(Req, Input, Scratch, O);
  return strictValue(O);
}

Result<Value> CompiledParser::parseFrom(NtId StartNt,
                                        std::string_view Input) const {
  ParseRequest Req;
  Req.Entry = StartNt;
  ParseScratch Scratch;
  ParseOutcome O;
  run(Req, Input, Scratch, O);
  return strictValue(O);
}

bool CompiledParser::recognize(std::string_view Input,
                               ParseScratch &Scratch) const {
  ParseRequest Req;
  Req.Mode = ParseMode::Recognize;
  ParseOutcome O;
  return run(Req, Input, Scratch, O);
}

Status CompiledParser::parseEvents(NtId StartNt, std::string_view Input,
                                   ParseScratch &Scratch,
                                   std::vector<ParseEvent> &Events) const {
  ParseRequest Req;
  Req.Entry = StartNt;
  Req.Mode = ParseMode::Events;
  // Borrow the caller's vector (and its capacity) for the outcome.
  ParseOutcome O;
  O.Events.swap(Events);
  run(Req, Input, Scratch, O);
  Events.swap(O.Events);
  if (!O.Errors.empty())
    return strictError(O);
  return Status::success();
}

std::vector<Result<Value>>
CompiledParser::parseBatch(NtId StartNt,
                           const std::vector<std::string_view> &Inputs,
                           ParseScratch &Scratch) const {
  ParseRequest Req;
  Req.Entry = StartNt;
  std::vector<ParseOutcome> Outs;
  runBatch(Req, Inputs.data(), Inputs.size(), Scratch, Outs);
  std::vector<Result<Value>> Out;
  Out.reserve(Outs.size());
  for (ParseOutcome &O : Outs)
    Out.push_back(strictValue(O));
  return Out;
}

std::vector<ParseOutcome> CompiledParser::parseBatchRecover(
    NtId StartNt, const std::vector<std::string_view> &Inputs,
    ParseScratch &Scratch) const {
  ParseRequest Req;
  Req.Entry = StartNt;
  Req.MaxErrors = DefaultMaxErrors;
  std::vector<ParseOutcome> Out;
  runBatch(Req, Inputs.data(), Inputs.size(), Scratch, Out);
  return Out;
}

RecordRun CompiledParser::parseEventsRecords(
    NtId R, std::string_view Input, size_t Pos, size_t Limit,
    ParseScratch &Scratch, std::vector<ParseEvent> &Events) const {
  ParseRequest Req;
  Req.Entry = R;
  Req.Mode = ParseMode::Events;
  ParseOutcome O;
  O.Events.swap(Events);
  RecordRun RR = runRecords(Req, Input, Pos, Limit, Scratch, O);
  Events.swap(O.Events);
  return RR;
}

//===--------------------------------------------------------------------===//
// ε-program pre-fusion (shared by compileFused and the artifact loader)
//===--------------------------------------------------------------------===//

void flap::buildEpsPrograms(CompiledParser &M, const ActionTable &Actions) {
  M.EpsOps.clear();
  M.EpsPrograms.clear();
  M.EpsPrograms.resize(M.EpsChains.size());
  for (size_t C = 0; C < M.EpsChains.size(); ++C) {
    const std::vector<ActionId> &Chain = M.EpsChains[C];
    CompiledParser::EpsProgram &P = M.EpsPrograms[C];
    if (Chain.empty()) {
      P.K = CompiledParser::EpsProgram::Unit;
      continue;
    }
    if (Chain.size() == 1) {
      const Action &A = Actions.get(Chain[0]);
      if (A.Kind == ActionKind::Const && A.Arity == 0) {
        P.K = CompiledParser::EpsProgram::OneConst;
        P.ConstVal = A.ConstVal;
        continue;
      }
    }
    P.K = CompiledParser::EpsProgram::Ops;
    P.Off = static_cast<uint32_t>(M.EpsOps.size());
    P.Len = static_cast<uint32_t>(Chain.size());
    int32_t Net = 0, MaxNet = 0;
    for (ActionId A : Chain) {
      M.EpsOps.push_back(A);
      Net += 1 - Actions.get(A).Arity;
      if (Net > MaxNet)
        MaxNet = Net;
    }
    P.MaxGrow = static_cast<uint32_t>(MaxNet);
  }
}
