//===- lexer/CompiledLexer.cpp - DFA lexer ----------------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "lexer/CompiledLexer.h"

#include "engine/Compile.h"
#include "engine/Diagnostic.h"
#include "engine/DispatchTier.h"
#include "engine/ScanKernel.h"
#include "support/StrUtil.h"

#include <cassert>
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

/// The lexer DFA's tier bounds for the scan kernel. It has no self-skip
/// tiers (no rule accepts a self-skip continuation, and the table audit
/// re-derives that), so PureSkip and SelfSkip go in as the constant 0
/// and the kernel's self-skip paths fold away.
dispatchtier::Bounds lexerTiers(const ScanTables &T) {
  return {0, 0, T.Tiers.TermAcc, T.Tiers.PureAcc, T.Tiers.Accept};
}

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
  // are stored per byte.
  std::unordered_map<std::vector<RegexId>, int32_t, RuleVecHash> StateIds;
  std::vector<std::vector<RegexId>> States;
  std::vector<int32_t> AcceptRaw;
  std::vector<int32_t> Rows; // States.size() * 256
  bool Overflow = false;
  auto InternState = [&](std::vector<RegexId> V) -> int32_t {
    auto It = StateIds.find(V);
    if (It != StateIds.end())
      return It->second;
    // The scan tables hold state ids as int16 (the staged machine's
    // width, engine/DispatchTier.h).
    if (States.size() >= CompiledParser::MaxPackedStates) {
      Overflow = true;
      return Dead;
    }
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
  for (size_t Work = 0; Work < States.size() && !Overflow; ++Work) {
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

  if (Overflow) {
    // Refused: keep a one-state DFA that matches nothing, so every pull
    // fails cleanly instead of reading a half-built table.
    Built = Err(format("lexer DFA exceeds %zu states; state ids no longer "
                       "fit the 16-bit transition tables",
                       CompiledParser::MaxPackedStates));
    States.resize(1);
    AcceptRaw.assign(1, -1);
    Rows.assign(256, Dead);
    Start = 0;
  }

  // The staged machine's scan-table build (engine/DispatchTier.h) minus
  // its self-skip tiers — the lexer DFA never produces a self-skip
  // accept, so the shared partition yields terminal accepting states
  // first, then pure accepting runs, then other accepting states. The
  // scan's per-byte acceptance test is a register compare, the matched
  // rule is read once per lexeme, and the first transition's loaded id
  // doubles as the lexeme's first-byte dispatch classification.
  const size_t NumStates = States.size();
  std::vector<dispatchtier::AcceptClass> Classes(NumStates);
  for (size_t S = 0; S < NumStates; ++S)
    Classes[S] = AcceptRaw[S] >= 0 ? dispatchtier::AcceptClass::Regular
                                   : dispatchtier::AcceptClass::None;
  const std::vector<int32_t> Perm = buildScanTables(Scan, Rows, Classes);
  assert(Scan.Tiers.SelfSkip == 0 && "lexer DFA has no self-skip tier");
  Accept.assign(NumStates, -1);
  for (size_t S = 0; S < NumStates; ++S)
    Accept[static_cast<size_t>(Perm[S])] = AcceptRaw[S];
  Start = Perm[Start];
}

LexStatus CompiledLexer::nextRaw(std::string_view Input, uint32_t &Pos,
                                 Lexeme &Out) const {
  // Lexeme offsets are uint32: refuse what they cannot address.
  if (Input.size() > MaxSpanBytes)
    return LexStatus::Error;
  if (Pos >= Input.size())
    return LexStatus::Eof;

  // The staged machine's scan kernel with no self-skip tiers (see
  // StreamLexer::pumpT below).
  scankernel::ScanState Sc;
  const scankernel::ScanOutcome O =
      scankernel::withWidth(Scan, [&](auto Width) FLAP_WIDTH_INLINE {
        using Tab = decltype(Width);
        return scankernel::scanEnter<Tab, true>(
            Tab::table(Scan), Scan.Skip.data(), lexerTiers(Scan),
            static_cast<uint32_t>(Start), Pos, Input.data(), Input.size(),
            Sc);
      });
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
  if (!Built.ok())
    return Err(Built.error());
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
/// kernel (lexerTiers: PureSkip = SelfSkip = 0; the dispatch-tier
/// renumbering is otherwise the staged machine's).
/// Fresh lexemes enter through the first-byte dispatch (scanEnter); a
/// More outcome leaves the registers parked in Sc — suspension on the
/// dispatch byte included — and the next pump resumes through the
/// general kernel. Final decides end-of-input like nextRaw does.
template <typename Tab, bool Final>
Status StreamLexer::pumpT(std::vector<Lexeme> &Out) {
  const typename Tab::Cell *T = Tab::table(L->Scan);
  const SkipSet *Skip = L->Scan.Skip.data();
  const dispatchtier::Bounds Tr = lexerTiers(L->Scan);
  const char *S = Buf.data();
  const size_t Len = Buf.size();
  for (;;) {
    scankernel::ScanOutcome O;
    if (!MidScan) {
      if (Sc.Base >= Len)
        return Status::success();
      O = scankernel::scanEnter<Tab, Final>(T, Skip, Tr,
                                            static_cast<uint32_t>(L->Start),
                                            Sc.Base, S, Len, Sc);
    } else {
      O = scankernel::scanStep<Tab, Final>(T, Skip, Tr, Sc, S, Len);
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
  return scankernel::withWidth(L->Scan, [&](auto Width) {
    return pumpT<decltype(Width), Final>(Out);
  });
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
