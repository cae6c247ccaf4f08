//===- codegen/CppEmitter.cpp - Emit the staged parser as C++ ----------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"

#include "regex/CharSet.h"
#include "support/StrUtil.h"

#include <map>

using namespace flap;

namespace {

/// Bytes leading from \p State to each distinct successor, as CharSets
/// (merging bytes with the same target — the per-state version of the
/// character-class optimization).
std::map<int32_t, CharSet> successorSets(const CompiledParser &M,
                                         int32_t State) {
  std::map<int32_t, CharSet> Out;
  for (int C = 0; C < 256; ++C) {
    int32_t Next = M.Scan.next(State, C);
    if (Next != CompiledParser::Dead)
      Out[Next].insert(static_cast<unsigned char>(C));
  }
  return Out;
}

std::string caseArms(const CharSet &S) {
  std::string Out;
  for (auto [Lo, Hi] : S.ranges()) {
    if (!Out.empty())
      Out += " ";
    if (Lo == Hi)
      Out += format("case %u:", Lo);
    else
      Out += format("case %u ... %u:", Lo, Hi);
  }
  return Out;
}

/// The 256-bit membership bitmap of \p S as a C array initializer.
std::string bitmapInit(const CharSet &S) {
  uint64_t Bits[4] = {0, 0, 0, 0};
  for (auto [Lo, Hi] : S.ranges())
    for (int C = Lo; C <= Hi; ++C)
      Bits[C >> 6] |= uint64_t(1) << (C & 63);
  return format("{0x%016llxULL, 0x%016llxULL, 0x%016llxULL, 0x%016llxULL}",
                static_cast<unsigned long long>(Bits[0]),
                static_cast<unsigned long long>(Bits[1]),
                static_cast<unsigned long long>(Bits[2]),
                static_cast<unsigned long long>(Bits[3]));
}

} // namespace

std::string flap::emitCpp(const CompiledParser &M, const std::string &Name) {
  std::string O;
  const int NumStates = M.numStates();

  O += "// Generated by flap-cpp: staged fused parser for '" + Name +
       "'.\n";
  O += format("// %d states, %d character classes, %zu continuations.\n",
              NumStates, M.numClasses(), M.Conts.size());
  O += "// Token-free: branches only on input characters (paper §5.5).\n";
  O += "#include <cstddef>\n#include <cstdint>\n#include <vector>\n\n";
  // SIMD run-skip kernels (same selection discipline as the library's
  // RunSkip.h): SSE2 or NEON when available, disabled by -DFLAP_NO_SIMD.
  O += "#if defined(__SSE2__) && !defined(FLAP_NO_SIMD)\n"
       "#include <emmintrin.h>\n"
       "#define FLAPGEN_SSE2 1\n"
       "#elif defined(__ARM_NEON) && !defined(FLAP_NO_SIMD)\n"
       "#include <arm_neon.h>\n"
       "#define FLAPGEN_NEON 1\n"
       "#endif\n\n";
  O += "namespace {\n\n";
  O += "struct MR { int32_t cont; long end; };\n\n";

  // Forward declarations — the mutually recursive parse_k functions —
  // and the self-loop bitmaps that drive run skipping (one per state
  // that loops over a byte class).
  std::map<int32_t, std::map<int32_t, CharSet>> Succs;
  for (int S = 0; S < NumStates; ++S)
    Succs[S] = successorSets(M, S);
  // Terminal accepting states (no successors at all): their match is
  // decided by the byte that enters them, so predecessors return the
  // continuation directly instead of tail-calling — the generated-code
  // analogue of the library's first-byte dispatch tier.
  auto IsTerminalAccept = [&](int32_t S) {
    return M.AcceptCont[S] >= 0 && Succs[S].empty();
  };
  for (int S = 0; S < NumStates; ++S) {
    O += format("static MR parse_%d(const unsigned char *s, long i, "
                "long len, int32_t best, long be);\n",
                S);
    auto Loop = Succs[S].find(S);
    if (Loop != Succs[S].end())
      O += format("static const uint64_t loop_%d[4] = ", S) +
           bitmapInit(Loop->second) + ";\n";
  }
  O += "\n";

  // Per-state bulk run skippers, mirroring the library's skipRun cost
  // model: an 8-byte word-at-a-time first block (short runs never pay
  // vector set-up), then — when the loop set decomposes into at most 4
  // byte ranges and SIMD is available — a 16-wide range-compare
  // classifier with the range bounds folded in as immediates, else the
  // portable word loop; a byte-at-a-time tail either way.
  for (int S = 0; S < NumStates; ++S) {
    auto Loop = Succs[S].find(S);
    if (Loop == Succs[S].end())
      continue;
    std::vector<std::pair<unsigned char, unsigned char>> Ranges;
    for (auto [Lo, Hi] : Loop->second.ranges())
      Ranges.push_back({Lo, Hi});
    const bool Simd = Ranges.size() <= 4;
    auto ByteTail = [&](const char *Ind) {
      return format("%swhile (j < len && ((loop_%d[s[j] >> 6] >> (s[j] & "
                    "63)) & 1u))\n%s  ++j;\n%sreturn j;\n",
                    Ind, S, Ind, Ind);
    };
    auto WordTest = [&](const char *Ind) {
      std::string W = format("%sunsigned m = 0;\n", Ind);
      for (int K = 0; K < 8; ++K)
        W += format("%sm |= ((loop_%d[s[j + %d] >> 6] >> (s[j + %d] & "
                    "63)) & 1u) << %d;\n",
                    Ind, S, K, K, K);
      W += format("%sif (m != 255u) return j + (long)__builtin_ctz(~m & "
                  "255u);\n%sj += 8;\n",
                  Ind, Ind);
      return W;
    };
    if (Simd) {
      O += format("#if defined(FLAPGEN_SSE2)\n"
                  "static long skip_simd_%d(const unsigned char *s, long "
                  "j, long len) {\n  while (j + 16 <= len) {\n"
                  "    __m128i v = _mm_loadu_si128(reinterpret_cast<const "
                  "__m128i *>(s + j));\n"
                  "    __m128i in = _mm_setzero_si128();\n",
                  S);
      for (auto [Lo, Hi] : Ranges)
        O += format(
            "    in = _mm_or_si128(in, _mm_and_si128(\n"
            "        _mm_cmpeq_epi8(_mm_max_epu8(v, _mm_set1_epi8("
            "(char)%u)), v),\n"
            "        _mm_cmpeq_epi8(_mm_min_epu8(v, _mm_set1_epi8("
            "(char)%u)), v)));\n",
            Lo, Hi);
      O += "    unsigned m = (unsigned)_mm_movemask_epi8(in);\n"
           "    if (m != 0xffffu) return j + (long)__builtin_ctz(~m);\n"
           "    j += 16;\n  }\n";
      O += ByteTail("  ");
      O += format("}\n#elif defined(FLAPGEN_NEON)\n"
                  "static long skip_simd_%d(const unsigned char *s, long "
                  "j, long len) {\n  while (j + 16 <= len) {\n"
                  "    uint8x16_t v = vld1q_u8(s + j);\n"
                  "    uint8x16_t in = vdupq_n_u8(0);\n",
                  S);
      for (auto [Lo, Hi] : Ranges)
        O += format("    in = vorrq_u8(in, vandq_u8(vcgeq_u8(v, "
                    "vdupq_n_u8(%u)), vcleq_u8(v, vdupq_n_u8(%u))));\n",
                    Lo, Hi);
      O += "    uint64_t m = vget_lane_u64(vreinterpret_u64_u8(\n"
           "        vshrn_n_u16(vreinterpretq_u16_u8(in), 4)), 0);\n"
           "    if (m != ~uint64_t(0)) return j + "
           "(long)(__builtin_ctzll(~m) >> 2);\n    j += 16;\n  }\n";
      O += ByteTail("  ");
      O += "}\n#endif\n";
    }
    O += format("static long skip_%d(const unsigned char *s, long j, "
                "long len) {\n",
                S);
    if (Simd) {
      O += "#if defined(FLAPGEN_SSE2) || defined(FLAPGEN_NEON)\n";
      O += "  if (j + 8 <= len) {\n";
      O += WordTest("    ");
      O += format("    return skip_simd_%d(s, j, len);\n  }\n", S);
      O += "#else\n";
    }
    O += "  while (j + 8 <= len) {\n";
    O += WordTest("    ");
    O += "  }\n";
    if (Simd)
      O += "#endif\n";
    O += ByteTail("  ");
    O += "}\n\n";
  }

  // One function per state: bulk-skip the state's self-loop run behind a
  // one-byte lookahead (length-1 runs pay a single bitmap test), then
  // scan one character, updating the best-match registers, and tail-call
  // the successor state — returning directly for terminal-accepting
  // successors.
  for (int S = 0; S < NumStates; ++S) {
    O += format("static MR parse_%d(const unsigned char *s, long i, "
                "long len, int32_t best, long be) {\n",
                S);
    std::map<int32_t, CharSet> &Succ = Succs[S];
    bool HasLoop = Succ.count(S) != 0;
    if (HasLoop) {
      int32_t Acc = M.AcceptCont[S];
      O += format("  if (i < len && ((loop_%d[s[i] >> 6] >> (s[i] & 63)) "
                  "& 1u)) {\n    i = skip_%d(s, i + 1, len);\n",
                  S, S);
      if (Acc >= 0)
        O += format("    best = %d; be = i;\n", Acc);
      O += "  }\n";
    }
    O += "  if (i >= len) return MR{best, be};\n";
    if (Succ.empty() || (Succ.size() == 1 && HasLoop)) {
      O += "  return MR{best, be};\n}\n\n";
      continue;
    }
    O += "  switch (s[i]) {\n";
    for (const auto &[Next, Set] : Succ) {
      if (Next == S)
        continue; // self-loop bytes were consumed by the run-skip loop
      O += "  " + caseArms(Set) + "\n";
      int32_t Acc = M.AcceptCont[Next];
      if (Acc >= 0 && IsTerminalAccept(Next))
        // First-byte dispatch fusion: a terminal-accepting successor has
        // no outgoing transitions, so the match is decided here.
        O += format("    return MR{%d, i + 1};\n", Acc);
      else if (Acc >= 0)
        O += format("    return parse_%d(s, i + 1, len, %d, i + 1);\n",
                    Next, Acc);
      else
        O += format("    return parse_%d(s, i + 1, len, best, be);\n",
                    Next);
    }
    O += "  default:\n    return MR{best, be};\n  }\n}\n\n";
  }

  // Static continuation tables.
  std::string TailSyms, TailOff, Push, SelfSkip;
  uint32_t Off = 0;
  for (const auto &K : M.Conts) {
    TailOff += format("%u, ", Off);
    Push += K.PushTok != NoToken ? "1, " : "0, ";
    SelfSkip += K.SelfSkip ? "1, " : "0, ";
    for (uint32_t J = 0; J < K.TailLen; ++J) {
      const Sym &S = M.tail(K)[J];
      if (S.isNt()) {
        TailSyms += format("%u, ", S.Idx);
        ++Off;
      }
    }
  }
  TailOff += format("%u", Off);
  O += "static const uint32_t ContTailOff[] = {" + TailOff + "};\n";
  O += "static const uint32_t ContTailSym[] = {0" +
       (TailSyms.empty() ? std::string() : ", " + TailSyms.substr(0, TailSyms.size() - 2)) +
       "};\n";
  O += "static const uint8_t ContPush[] = {0" +
       (Push.empty() ? std::string() : ", " + Push.substr(0, Push.size() - 2)) +
       "};\n";
  // Full continuation tails — nonterminals *and* markers (bit 31 tags an
  // action id) — plus the pushed token per continuation: the tables
  // behind the event driver and the value machine. Unlike the library's
  // packed pools these carry the *unrewritten* symbol stream (no
  // dead-token elision): generated events name raw ActionIds and report
  // every pushed token, the same stream the Fig. 9 reference
  // interpreter (engine/FusedInterp.h) runs.
  std::string FullOff, FullSyms, ContToks;
  uint32_t FOff = 0;
  for (const auto &K : M.Conts) {
    FullOff += format("%u, ", FOff);
    ContToks += format("%d, ", K.PushTok);
    for (uint32_t J = 0; J < K.TailLen; ++J) {
      const Sym &S = M.tail(K)[J];
      FullSyms += S.isNt() ? format("%uu, ", S.Idx)
                           : format("0x%08xu, ",
                                    0x80000000u | static_cast<uint32_t>(S.Idx));
      ++FOff;
    }
  }
  FullOff += format("%u", FOff);
  O += "static const uint32_t FTOff[] = {" + FullOff + "};\n";
  O += "static const uint32_t FTSym[] = {0" +
       (FullSyms.empty() ? std::string()
                         : ", " + FullSyms.substr(0, FullSyms.size() - 2)) +
       "};\n";
  O += "static const int32_t ContTok[] = {0" +
       (ContToks.empty() ? std::string()
                         : ", " + ContToks.substr(0, ContToks.size() - 2)) +
       "};\n";
  // F2 whitespace continuations (n → r_skip n): the drivers rescan the
  // same nonterminal in place — the library scan's self-skip fusion —
  // instead of a stack round trip per whitespace lexeme.
  O += "static const uint8_t ContSkip[] = {0" +
       (SelfSkip.empty()
            ? std::string()
            : ", " + SelfSkip.substr(0, SelfSkip.size() - 2)) +
       "};\n";

  std::string Starts, Eps;
  for (const auto &Nt : M.Nts) {
    Starts += format("%d, ", Nt.StartState);
    Eps += Nt.EpsChain >= 0 ? "1, " : "0, ";
  }
  O += "static const int32_t NtStart[] = {" +
       Starts.substr(0, Starts.size() - 2) + "};\n";
  O += "static const uint8_t NtEps[] = {" + Eps.substr(0, Eps.size() - 2) +
       "};\n\n";

  // Dispatch on the start state without indirect calls: a switch with a
  // direct call per reachable start state.
  O += "static MR runNt(int32_t st, const unsigned char *s, long pos, "
       "long len) {\n  switch (st) {\n";
  std::map<int32_t, bool> StartStates;
  for (const auto &Nt : M.Nts)
    StartStates[Nt.StartState] = true;
  if (M.SkipState >= 0)
    StartStates[M.SkipState] = true;
  for (const auto &[St, Unused] : StartStates)
    O += format("  case %d: return parse_%d(s, pos, len, -1, pos);\n", St,
                St);
  O += "  default: return MR{-1, pos};\n  }\n}\n\n";
  O += "} // namespace\n\n";

  // The driver: explicit nonterminal stack, best-match continuations.
  O += "extern \"C\" long " + Name +
       "_parse(const char *input, size_t n) {\n";
  O += "  const unsigned char *s = "
       "reinterpret_cast<const unsigned char *>(input);\n";
  O += "  const long len = static_cast<long>(n);\n";
  O += "  std::vector<uint32_t> stack;\n";
  O += format("  stack.push_back(%u);\n", M.Start);
  O += "  long pos = 0, count = 0;\n";
  O += "  while (!stack.empty()) {\n";
  O += "    uint32_t nt = stack.back(); stack.pop_back();\n";
  O += "    MR m = runNt(NtStart[nt], s, pos, len);\n";
  O += "    while (m.cont >= 0 && ContSkip[1 + m.cont]) {\n";
  O += "      pos = m.end; // F2 whitespace: rescan in place\n";
  O += "      m = runNt(NtStart[nt], s, pos, len);\n";
  O += "    }\n";
  O += "    if (m.cont >= 0) {\n";
  O += "      if (ContPush[1 + m.cont]) ++count;\n";
  O += "      pos = m.end;\n";
  O += "      for (uint32_t j = ContTailOff[m.cont + 1]; "
       "j-- > ContTailOff[m.cont];)\n";
  O += "        stack.push_back(ContTailSym[1 + j]);\n";
  O += "      continue;\n";
  O += "    }\n";
  O += "    if (NtEps[nt]) continue;\n";
  O += "    return -1;\n";
  O += "  }\n";
  if (M.SkipState >= 0) {
    O += "  // absorb trailing skip lexemes\n";
    O += "  while (pos < len) {\n";
    O += format("    MR m = runNt(%d, s, pos, len);\n", M.SkipState);
    O += "    if (m.cont < 0 || m.end == pos) break;\n";
    O += "    pos = m.end;\n";
    O += "  }\n";
  }
  O += "  return pos == len ? count : -1;\n";
  O += "}\n";

  // The event driver — the generated analogue of the library's
  // EventSink policy (engine/Sink.h): the same residual loop over the
  // *full* tails, reporting Enter (kind 0, nonterminal), Token (kind 1,
  // token id over [begin, end)), Reduce (kind 2, raw ActionId) and Eps
  // (kind 3, nonterminal) through the callback. Replaying token pushes
  // and action applications in stream order reproduces the semantic
  // value (tests/CodegenTest.cpp pins this against the library
  // engines). Returns the number of events, or -1 on reject.
  O += "\nextern \"C\" long " + Name +
       "_parse_events(const char *input, size_t n,\n"
       "    void (*ev)(void *user, int kind, long id, long begin, "
       "long end), void *user) {\n";
  O += "  const unsigned char *s = "
       "reinterpret_cast<const unsigned char *>(input);\n";
  O += "  const long len = static_cast<long>(n);\n";
  O += "  std::vector<uint32_t> stack;\n";
  O += format("  stack.push_back(%u);\n", M.Start);
  O += "  long pos = 0, count = 0;\n";
  O += "  while (!stack.empty()) {\n";
  O += "    uint32_t e = stack.back(); stack.pop_back();\n";
  O += "    if (e & 0x80000000u) {\n";
  O += "      if (ev) ev(user, 2, (long)(e & 0x7fffffffu), pos, pos);\n";
  O += "      ++count;\n      continue;\n    }\n";
  O += "    if (ev) ev(user, 0, (long)e, pos, pos);\n    ++count;\n";
  O += "    MR m = runNt(NtStart[e], s, pos, len);\n";
  O += "    while (m.cont >= 0 && ContSkip[1 + m.cont]) {\n";
  O += "      pos = m.end; // F2 whitespace: rescan in place\n";
  O += "      m = runNt(NtStart[e], s, pos, len);\n";
  O += "    }\n";
  O += "    if (m.cont >= 0) {\n";
  O += "      if (ContTok[1 + m.cont] >= 0) {\n";
  O += "        if (ev) ev(user, 1, ContTok[1 + m.cont], pos, m.end);\n";
  O += "        ++count;\n      }\n";
  O += "      pos = m.end;\n";
  O += "      for (uint32_t j = FTOff[m.cont + 1]; j-- > FTOff[m.cont];)\n";
  O += "        stack.push_back(FTSym[1 + j]);\n";
  O += "      continue;\n";
  O += "    }\n";
  O += "    if (NtEps[e]) {\n";
  O += "      if (ev) ev(user, 3, (long)e, pos, pos);\n";
  O += "      ++count;\n      continue;\n    }\n";
  O += "    return -1;\n";
  O += "  }\n";
  if (M.SkipState >= 0) {
    O += "  // absorb trailing skip lexemes\n";
    O += "  while (pos < len) {\n";
    O += format("    MR m = runNt(%d, s, pos, len);\n", M.SkipState);
    O += "    if (m.cont < 0 || m.end == pos) break;\n";
    O += "    pos = m.end;\n";
    O += "  }\n";
  }
  O += "  return pos == len ? count : -1;\n";
  O += "}\n";

  // The value machine: emitted only when every action is a scalar
  // micro-op, i.e. the grammar's semantics compile entirely to the same
  // tagged switch dispatch the library engines run (no custom
  // callables to serialize). Values are longs; tokens push a 0
  // placeholder (never read by these action kinds' surviving selectors
  // in integer-valued grammars).
  bool CanEmitValues = M.Actions != nullptr && M.Actions->size() > 0;
  if (CanEmitValues)
    for (size_t A = 0; A < M.Actions->size(); ++A) {
      // MSlow needs the full Action record; MTokInt reads lexeme text,
      // which the emitted value machine (tokens push 0 placeholders)
      // cannot reproduce; MMaxAcc's packed count+max scalar needs 64
      // bits, which the machine's `long` values do not guarantee.
      const MicroOp &Op = M.Actions->micro()[A];
      CanEmitValues &= Op.K != MicroOp::MSlow &&
                       Op.K != MicroOp::MTokInt &&
                       Op.K != MicroOp::MMaxAcc;
    }
  if (!CanEmitValues)
    return O;

  const ActionTable &AT = *M.Actions;
  auto IntArr = [&O](const char *Type, const char *Name,
                     const std::vector<long long> &Items) {
    O += format("static const %s %s[] = {0", Type, Name); // [0] sentinel
    for (long long I : Items)
      O += format(", %lld", I);
    O += "};\n";
  };
  std::vector<long long> AK, AA, AS, AS2, AI;
  for (size_t A = 0; A < AT.size(); ++A) {
    const MicroOp &Op = AT.micro()[A];
    AK.push_back(static_cast<int>(Op.K));
    AA.push_back(Op.Arity);
    AS.push_back(Op.Sel);
    AS2.push_back(Op.Sel2);
    AI.push_back(Op.Imm);
  }
  // The ε-chain programs (the full tails themselves are the FTOff/FTSym
  // tables shared with the event driver).
  std::vector<long long> EOff, ELen, EOps;
  for (const auto &Nt : M.Nts) {
    if (Nt.EpsChain < 0) {
      EOff.push_back(0);
      ELen.push_back(0);
      continue;
    }
    const std::vector<ActionId> &Chain = M.EpsChains[Nt.EpsChain];
    EOff.push_back(static_cast<long long>(EOps.size()));
    ELen.push_back(static_cast<long long>(Chain.size()));
    for (ActionId A : Chain)
      EOps.push_back(A);
  }

  O += "\nnamespace {\n\n";
  IntArr("uint8_t", "ActK", AK);
  IntArr("uint8_t", "ActA", AA);
  IntArr("int16_t", "ActS", AS);
  IntArr("int16_t", "ActS2", AS2);
  IntArr("long long", "ActImm", AI);
  IntArr("uint32_t", "NtEpsOff", EOff);
  IntArr("uint32_t", "NtEpsLen", ELen);
  IntArr("uint32_t", "EpsOp", EOps);

  // The switch dispatch — the generated analogue of
  // ValueStack::applyMicroOp.
  O += R"(
static void vapply(uint32_t a, std::vector<long> &vals) {
  const int ar = ActA[1 + a];
  const size_t base = vals.size() - (size_t)ar;
  long r = 0;
  switch (ActK[1 + a]) {
  case 0: r = 0; break;                                   // unit
  case 1: r = (long)ActImm[1 + a]; break;                 // const int
  case 2: r = ActImm[1 + a] != 0; break;                  // const bool
  case 3: r = vals[base + (size_t)ActS[1 + a]]; break;    // select
  case 4: r = vals[base + (size_t)ActS[1 + a]] +
              vals[base + (size_t)ActS2[1 + a]]; break;   // add args
  case 5: r = vals[base + (size_t)ActS[1 + a]] +
              (long)ActImm[1 + a]; break;                 // add imm
  }
  vals.resize(base);
  vals.push_back(r);
}

} // namespace

)";
  O += "extern \"C\" long " + Name +
       "_parse_value(const char *input, size_t n, long *out) {\n";
  O += "  const unsigned char *s = "
       "reinterpret_cast<const unsigned char *>(input);\n";
  O += "  const long len = static_cast<long>(n);\n";
  O += "  std::vector<uint32_t> stack;\n  std::vector<long> vals;\n";
  O += format("  stack.push_back(%u);\n", M.Start);
  O += "  long pos = 0;\n";
  O += "  while (!stack.empty()) {\n";
  O += "    uint32_t e = stack.back(); stack.pop_back();\n";
  O += "    if (e & 0x80000000u) { vapply(e & 0x7fffffffu, vals); "
       "continue; }\n";
  O += "    MR m = runNt(NtStart[e], s, pos, len);\n";
  O += "    while (m.cont >= 0 && ContSkip[1 + m.cont]) {\n";
  O += "      pos = m.end; // F2 whitespace: rescan in place\n";
  O += "      m = runNt(NtStart[e], s, pos, len);\n";
  O += "    }\n";
  O += "    if (m.cont >= 0) {\n";
  O += "      if (ContPush[1 + m.cont]) vals.push_back(0);\n";
  O += "      pos = m.end;\n";
  O += "      for (uint32_t j = FTOff[m.cont + 1]; j-- > FTOff[m.cont];)\n";
  O += "        stack.push_back(FTSym[1 + j]);\n";
  O += "      continue;\n";
  O += "    }\n";
  O += "    if (NtEps[e]) {\n";
  O += "      uint32_t off = NtEpsOff[1 + e], cnt = NtEpsLen[1 + e];\n";
  O += "      if (cnt == 0) { vals.push_back(0); continue; }\n";
  O += "      for (uint32_t j = 0; j < cnt; ++j) vapply(EpsOp[1 + off + j], "
       "vals);\n";
  O += "      continue;\n";
  O += "    }\n";
  O += "    return -1;\n";
  O += "  }\n";
  if (M.SkipState >= 0) {
    O += "  while (pos < len) {\n";
    O += format("    MR m = runNt(%d, s, pos, len);\n", M.SkipState);
    O += "    if (m.cont < 0 || m.end == pos) break;\n";
    O += "    pos = m.end;\n";
    O += "  }\n";
  }
  O += "  if (pos != len) return -1;\n";
  O += "  *out = vals.size() == 1 ? vals[0] : 0;\n";
  O += "  return 0;\n";
  O += "}\n";
  return O;
}
