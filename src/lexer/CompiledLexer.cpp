//===- lexer/CompiledLexer.cpp - DFA lexer ----------------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "lexer/CompiledLexer.h"

#include "engine/Diagnostic.h"
#include "engine/DispatchTier.h"
#include "engine/ScanKernel.h"
#include "support/StrUtil.h"

#include <cassert>
#include <map>
#include <unordered_map>

using namespace flap;

namespace {

/// FNV-1a over a rule-derivative vector (the lexer's analogue of the
/// staging interner's hash).
struct RuleVecHash {
  size_t operator()(const std::vector<RegexId> &V) const {
    uint64_t H = 1469598103934665603ull;
    for (RegexId R : V)
      H = (H ^ static_cast<uint64_t>(static_cast<uint32_t>(R))) *
          1099511628211ull;
    return static_cast<size_t>(H);
  }
};

} // namespace

CompiledLexer::CompiledLexer(RegexArena &Arena, const CanonicalLexer &Lexer) {
  // Rule vector: Return rules in order, then the Skip rule.
  std::vector<RegexId> StartVec;
  for (const LexRule &R : Lexer.Rules) {
    StartVec.push_back(R.Re);
    Toks.push_back(R.Tok);
  }
  StartVec.push_back(Lexer.SkipRe);
  Toks.push_back(NoToken);

  // Subset construction over rule-derivative vectors. Each state derives
  // along its own derivative-class partition (Owens et al.); transitions
  // are first stored per byte, then compressed into global classes.
  std::unordered_map<std::vector<RegexId>, int32_t, RuleVecHash> StateIds;
  std::vector<std::vector<RegexId>> States;
  std::vector<int32_t> AcceptRaw;
  std::vector<int32_t> Rows; // States.size() * 256
  auto InternState = [&](std::vector<RegexId> V) -> int32_t {
    auto It = StateIds.find(V);
    if (It != StateIds.end())
      return It->second;
    int32_t Id = static_cast<int32_t>(States.size());
    StateIds.emplace(V, Id);
    States.push_back(std::move(V));
    // Accepting rule: the unique nullable member (disjointness).
    int32_t Acc = -1;
    for (size_t R = 0; R < States[Id].size(); ++R) {
      if (States[Id][R] != Arena.empty() &&
          Arena.nullable(States[Id][R])) {
        assert(Acc < 0 && "canonicalized lexer rules overlap");
        Acc = static_cast<int32_t>(R);
      }
    }
    AcceptRaw.push_back(Acc);
    Rows.resize(States.size() * 256, Dead);
    return Id;
  };

  Start = InternState(StartVec);
  for (size_t Work = 0; Work < States.size(); ++Work) {
    // Copy: States may reallocate while interning successors.
    std::vector<RegexId> Cur = States[Work];
    std::vector<CharSet> Parts = {CharSet::all()};
    for (RegexId R : Cur)
      if (R != Arena.empty())
        Parts = refinePartition(Parts, Arena.classes(R));
    for (const CharSet &Part : Parts) {
      unsigned char Rep = Part.first();
      std::vector<RegexId> Next(Cur.size());
      bool AnyLive = false;
      for (size_t R = 0; R < Cur.size(); ++R) {
        Next[R] = Cur[R] == Arena.empty() ? Arena.empty()
                                          : Arena.derive(Cur[R], Rep);
        AnyLive |= Next[R] != Arena.empty();
      }
      int32_t Dst = AnyLive ? InternState(std::move(Next)) : Dead;
      for (auto [Lo, Hi] : Part.ranges())
        for (int C = Lo; C <= Hi; ++C)
          Rows[Work * 256 + C] = Dst;
    }
  }

  // Dispatch-tier renumbering: the staged machine's encoding
  // (engine/DispatchTier.h) minus its self-skip tiers — the lexer DFA
  // never produces a self-skip accept, so the shared partition yields
  // terminal accepting states first, then pure accepting runs, then
  // other accepting states. The scan's per-byte acceptance test is a
  // register compare, the matched rule is read once per lexeme, and the
  // first transition's loaded id doubles as the lexeme's first-byte
  // dispatch classification.
  const size_t NumStates = States.size();
  std::vector<int32_t> Perm;
  dispatchtier::Bounds Tiers = dispatchtier::renumber(
      Rows, NumStates,
      [&](size_t S) {
        return AcceptRaw[S] >= 0 ? dispatchtier::AcceptClass::Regular
                                 : dispatchtier::AcceptClass::None;
      },
      Perm);
  assert(Tiers.SelfSkip == 0 && "lexer DFA has no self-skip tier");
  NumTerm = Tiers.TermAcc;
  NumPureRun = Tiers.PureAcc;
  NumAccept = Tiers.Accept;
  {
    std::vector<int32_t> PRows(NumStates * 256, Dead);
    for (size_t S = 0; S < NumStates; ++S)
      for (int C = 0; C < 256; ++C) {
        int32_t D = Rows[S * 256 + C];
        PRows[static_cast<size_t>(Perm[S]) * 256 + C] = D < 0 ? D : Perm[D];
      }
    Rows.swap(PRows);
  }
  Accept.assign(NumStates, -1);
  for (size_t S = 0; S < NumStates; ++S)
    Accept[static_cast<size_t>(Perm[S])] = AcceptRaw[S];
  Start = Perm[Start];

  // Run-state skip metadata: lexeme-interior self-loops.
  Skip.resize(NumStates);
  for (size_t S = 0; S < NumStates; ++S) {
    for (int C = 0; C < 256; ++C)
      if (Rows[S * 256 + C] == static_cast<int32_t>(S))
        Skip[S].set(static_cast<unsigned char>(C));
    Skip[S].finalize();
  }

  // Byte-column compression into equivalence classes.
  std::map<std::vector<int32_t>, int> ColumnIds;
  for (int C = 0; C < 256; ++C) {
    std::vector<int32_t> Col(NumStates);
    for (size_t S = 0; S < NumStates; ++S)
      Col[S] = Rows[S * 256 + C];
    auto It =
        ColumnIds.emplace(std::move(Col), static_cast<int>(ColumnIds.size()))
            .first;
    Alpha.Map[C] = static_cast<uint8_t>(It->second);
  }
  Alpha.NumClasses = static_cast<int>(ColumnIds.size());
  Trans.assign(NumStates * Alpha.NumClasses, Dead);
  for (const auto &[Col, Cls] : ColumnIds)
    for (size_t S = 0; S < NumStates; ++S)
      Trans[S * Alpha.NumClasses + Cls] = Col[S];
  Trans16.assign(NumStates * 256, static_cast<int16_t>(-1));
  for (size_t S = 0; S < NumStates; ++S)
    for (int C = 0; C < 256; ++C)
      Trans16[S * 256 + C] = static_cast<int16_t>(Rows[S * 256 + C]);
  if (NumStates <= 255) {
    Trans8.assign(NumStates * 256, Dead8);
    for (size_t S = 0; S < NumStates; ++S)
      for (int C = 0; C < 256; ++C)
        if (Rows[S * 256 + C] >= 0)
          Trans8[S * 256 + C] = static_cast<uint8_t>(Rows[S * 256 + C]);
  }
}

LexStatus CompiledLexer::nextRaw(std::string_view Input, uint32_t &Pos,
                                 Lexeme &Out) const {
  const uint32_t N = static_cast<uint32_t>(Input.size());
  if (Pos >= N)
    return LexStatus::Eof;

  // The staged machine's scan kernel with no self-skip tiers (see
  // StreamLexer::pumpT below).
  const scankernel::Tiers Tr{0, 0, NumTerm, NumPureRun, NumAccept};
  scankernel::ScanState Sc;
  const scankernel::ScanOutcome O =
      !Trans8.empty()
          ? scankernel::scanEnter<scankernel::Tab8, true>(
                Trans8.data(), Skip.data(), Tr, static_cast<uint32_t>(Start),
                Pos, Input.data(), N, Sc)
          : scankernel::scanEnter<scankernel::Tab16, true>(
                Trans16.data(), Skip.data(), Tr,
                static_cast<uint32_t>(Start), Pos, Input.data(), N, Sc);
  if (O != scankernel::ScanOutcome::Match)
    return LexStatus::Error;
  const uint32_t BestEnd = static_cast<uint32_t>(Sc.BestEnd);
  Out = {Toks[Accept[Sc.Bs]], Pos, BestEnd};
  Pos = BestEnd;
  return LexStatus::Token;
}

LexStatus CompiledLexer::next(std::string_view Input, uint32_t &Pos,
                              Lexeme &Out) const {
  while (true) {
    LexStatus S = nextRaw(Input, Pos, Out);
    if (S != LexStatus::Token || Out.Tok != NoToken)
      return S;
    // Skip lexeme: keep pulling.
  }
}

Result<std::vector<Lexeme>> CompiledLexer::lexAll(std::string_view Input) const {
  // Lexeme offsets are uint32: refuse what they cannot address.
  if (Input.size() > MaxSpanBytes)
    return Err(OffsetLimitMessage);
  std::vector<Lexeme> Out;
  uint32_t Pos = 0;
  while (true) {
    Lexeme L;
    switch (next(Input, Pos, L)) {
    case LexStatus::Eof:
      return Out;
    case LexStatus::Error:
      return Err(format("lexing failed at offset %u (no rule matches)", Pos));
    case LexStatus::Token:
      Out.push_back(L);
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// StreamLexer — push-style chunked lexing
//===----------------------------------------------------------------------===//

/// The longest-match scan over the current window, via the resumable
/// kernel (the lexer DFA is the staged machine with no self-skip tiers,
/// so the Tiers bundle passes PureSkip = SelfSkip = 0; the dispatch-tier
/// renumbering is otherwise the same). Fresh lexemes enter through the
/// first-byte dispatch (scanEnter); a More outcome leaves the registers
/// parked in Sc — suspension on the dispatch byte included — and the
/// next pump resumes through the general kernel. Final decides
/// end-of-input like nextRaw does.
template <typename Tab, bool Final>
Status StreamLexer::pumpT(std::vector<Lexeme> &Out,
                          const typename Tab::Cell *T) {
  const char *S = Buf.data();
  const size_t Len = Buf.size();
  const scankernel::Tiers Tr{0, 0, L->NumTerm, L->NumPureRun, L->NumAccept};
  for (;;) {
    scankernel::ScanOutcome O;
    if (!MidScan) {
      if (Sc.Base >= Len)
        return Status::success();
      O = scankernel::scanEnter<Tab, Final>(T, L->Skip.data(), Tr,
                                            static_cast<uint32_t>(L->Start),
                                            Sc.Base, S, Len, Sc);
    } else {
      O = scankernel::scanStep<Tab, Final>(T, L->Skip.data(), Tr, Sc, S,
                                           Len);
    }
    MidScan = O == scankernel::ScanOutcome::More;
    if (MidScan)
      return Status::success(); // suspended mid-lexeme (or mid-dispatch)
    if (O == scankernel::ScanOutcome::Fail)
      return Err(format("lexing failed at offset %llu (no rule matches)",
                        static_cast<unsigned long long>(WinBase + Sc.Base)));
    TokenId Tok = L->Toks[L->Accept[Sc.Bs]];
    if (Tok != NoToken)
      Out.push_back({Tok, static_cast<uint32_t>(WinBase + Sc.Base),
                     static_cast<uint32_t>(WinBase + Sc.BestEnd)});
    Sc.Base = Sc.BestEnd;
  }
}

template <bool Final> Status StreamLexer::pump(std::vector<Lexeme> &Out) {
  if (L->Trans8.empty())
    return pumpT<flap::scankernel::Tab16, Final>(Out, L->Trans16.data());
  return pumpT<flap::scankernel::Tab8, Final>(Out, L->Trans8.data());
}

Status StreamLexer::feed(std::string_view Chunk, std::vector<Lexeme> &Out) {
  if (Finished)
    return Err("feed() after finish()");
  // Lexeme offsets are uint32: fail gracefully before they can wrap.
  if (WinBase + Buf.size() + Chunk.size() > MaxSpanBytes)
    return Err(OffsetLimitMessage);
  if (!Chunk.empty())
    Buf.append(Chunk.data(), Chunk.size());
  Status St = pump</*Final=*/false>(Out);
  // Carry only the in-progress lexeme: drop everything before its base.
  if (const size_t Cut = Sc.Base) {
    Buf.erase(0, Cut);
    WinBase += Cut;
    Sc.rebase(Cut);
  }
  return St;
}

Status StreamLexer::finish(std::vector<Lexeme> &Out) {
  if (Finished)
    return Status::success();
  Status St = pump</*Final=*/true>(Out);
  Finished = true;
  Buf.clear();
  return St;
}

void StreamLexer::reset() {
  Buf.clear();
  WinBase = 0;
  Sc = {};
  MidScan = false;
  Finished = false;
}
