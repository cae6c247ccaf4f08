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

/// `static const Type Name[] = {...};` over \p N items rendered by
/// \p Item, eight per line; an empty table gets one 0 (C++ has no
/// zero-length arrays, and no index reaches it).
template <typename ItemFn>
std::string cArray(const char *Type, const char *Name, size_t N,
                   ItemFn &&Item) {
  std::string O = format("static const %s %s[] = {", Type, Name);
  for (size_t I = 0; I < N; ++I)
    O += (I % 8 == 0 ? "\n    " : " ") + Item(I) + ",";
  return O + (N == 0 ? "0};\n" : "\n};\n");
}

/// The op table of the emitted value machine: OpPool's occurrences
/// (a Reduce's OpPool index is its op index), then one range of ops per
/// ε-program, whose starts \p EpsOff records (one past the last program
/// too); a Unit or OneConst program is one arity-0 constant op. Empty
/// unless every op is a scalar micro-op the machine's `long` values
/// carry: no MSlow (the full Action record), no MTokInt (tokens push 0
/// placeholders, so lexeme text is not available), no MMaxAcc (its packed
/// count+max scalar needs 64 bits), no non-scalar constant.
std::vector<MicroOp> valueOps(const CompiledParser &M,
                              std::vector<uint32_t> &EpsOff) {
  if (M.Actions == nullptr || M.Actions->size() == 0)
    return {};
  std::vector<MicroOp> Ops(M.OpPool.begin(), M.OpPool.end());
  for (const CompiledParser::EpsProgram &EP : M.EpsPrograms) {
    EpsOff.push_back(static_cast<uint32_t>(Ops.size()));
    for (uint32_t J = 0; J < EP.Len; ++J) // Ops programs only
      Ops.push_back(M.Actions->micro()[M.EpsOps[EP.Off + J]]);
    if (EP.K == CompiledParser::EpsProgram::Ops)
      continue;
    const Value &C = EP.ConstVal; // unit for a Unit program
    MicroOp K; // MSlow, refused below, for any other constant
    K.Arity = 0;
    if (C.isInt() || C.isBool() || C.isUnit())
      K.K = C.isInt() ? MicroOp::MInt : C.isBool() ? MicroOp::MBool
                                                   : MicroOp::MUnit;
    K.Imm = C.isInt() ? C.asInt() : C.isBool() && C.asBool();
    Ops.push_back(K);
  }
  EpsOff.push_back(static_cast<uint32_t>(Ops.size()));
  for (const MicroOp &Op : Ops)
    if (Op.K == MicroOp::MSlow || Op.K == MicroOp::MTokInt ||
        Op.K == MicroOp::MMaxAcc)
      return {};
  return Ops;
}

} // namespace

std::string flap::emitCpp(const CompiledParser &M, const std::string &Name) {
  std::string O;
  const int NumStates = M.numStates();
  const dispatchtier::Bounds &Tiers = M.Scan.Tiers;

  O += "// Generated by flap-cpp: staged fused parser for '" + Name +
       "'.\n";
  O += format("// %d states, %d character classes, %zu pool symbols, %zu "
              "marker ops.\n",
              NumStates, M.numClasses(), M.PackedPool.size(),
              M.OpPool.size());
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
  O += "// A scan's result: the best accepting state (-1: none) and where "
       "its match ends.\n";
  O += "struct MR { int32_t best; long end; };\n\n";

  // Forward declarations — the mutually recursive parse_k functions —
  // and the self-loop bitmaps that drive run skipping (one per state
  // that loops over a byte class).
  std::map<int32_t, std::map<int32_t, CharSet>> Succs;
  for (int S = 0; S < NumStates; ++S)
    Succs[S] = successorSets(M, S);
  // Terminal accepting states (no successors at all): their match is
  // decided by the byte that enters them, so predecessors return the
  // state directly instead of tail-calling — the generated-code analogue
  // of the library's first-byte dispatch tier. Their functions stay for
  // the one-function-per-state shape, called at most as a scan entry.
  auto Accepts = [&](int32_t S) { return S < Tiers.Accept; };
  auto IsTerminalAccept = [&](int32_t S) {
    return Accepts(S) && Succs[S].empty();
  };
  for (int S = 0; S < NumStates; ++S) {
    O += format("%sstatic MR parse_%d(const unsigned char *s, long i, "
                "long len, int32_t best, long be);\n",
                IsTerminalAccept(S) ? "[[maybe_unused]] " : "", S);
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
  // successors. A state without successors only reports the registers.
  for (int S = 0; S < NumStates; ++S) {
    std::map<int32_t, CharSet> &Succ = Succs[S];
    if (Succ.empty()) {
      O += format("static MR parse_%d(const unsigned char *, long, long, "
                  "int32_t best, long be) {\n  return MR{best, be};\n}\n\n",
                  S);
      continue;
    }
    O += format("static MR parse_%d(const unsigned char *s, long i, "
                "long len, int32_t best, long be) {\n",
                S);
    bool HasLoop = Succ.count(S) != 0;
    if (HasLoop) {
      O += format("  if (i < len && ((loop_%d[s[i] >> 6] >> (s[i] & 63)) "
                  "& 1u)) {\n    i = skip_%d(s, i + 1, len);\n",
                  S, S);
      if (Accepts(S))
        O += format("    best = %d; be = i;\n", S);
      O += "  }\n";
      if (Succ.size() == 1) {
        O += "  return MR{best, be};\n}\n\n";
        continue;
      }
    }
    O += "  if (i >= len) return MR{best, be};\n";
    O += "  switch (s[i]) {\n";
    for (const auto &[Next, Set] : Succ) {
      if (Next == S)
        continue; // self-loop bytes were consumed by the run-skip loop
      O += "  " + caseArms(Set) + "\n";
      if (IsTerminalAccept(Next))
        // First-byte dispatch fusion: a terminal-accepting successor has
        // no outgoing transitions, so the match is decided here.
        O += format("    return MR{%d, i + 1};\n", Next);
      else if (Accepts(Next))
        O += format("    return parse_%d(s, i + 1, len, %d, i + 1);\n",
                    Next, Next);
      else
        O += format("    return parse_%d(s, i + 1, len, best, be);\n",
                    Next);
    }
    O += "  default:\n    return MR{best, be};\n  }\n}\n\n";
  }

  // The library's packed tables (engine/Compile.h): per accepting state
  // the packed accept entry — token in bits 63..48 (0xffff: none, or
  // elided), tail length in 47..32, tail offset in 31..0 — over the full
  // pool (markers: bit 31, an OpPool index) or the nonterminals-only
  // pool; pool and stack entries are packed nonterminals, NtId in bits
  // 30..16 and its scan start state in 15..0.
  auto Hex64 = [](uint64_t V) {
    return format("0x%016llxull", static_cast<unsigned long long>(V));
  };
  auto Hex32 = [](uint32_t V) { return format("0x%08xu", V); };
  O += cArray("uint64_t", "AccMeta", M.AccMeta.size(),
              [&](size_t I) { return Hex64(M.AccMeta[I]); });
  O += cArray("uint64_t", "AccNtMeta", M.AccNtMeta.size(),
              [&](size_t I) { return Hex64(M.AccNtMeta[I]); });
  O += cArray("uint32_t", "PackedPool", M.PackedPool.size(),
              [&](size_t I) { return Hex32(M.PackedPool[I]); });
  O += cArray("uint32_t", "NtPool", M.NtPool.size(),
              [&](size_t I) { return Hex32(M.NtPool[I]); });
  // Per nonterminal: its ε-program (the ε/lookahead fallback), or -1.
  O += cArray("int32_t", "NtEps", M.Nts.size(), [&](size_t I) {
    return format("%d", M.Nts[I].EpsChain);
  });
  O += "\n";

  // Dispatch on the start state without indirect calls: a switch with a
  // direct call per reachable start state.
  std::map<int32_t, bool> StartStates;
  for (const auto &Nt : M.Nts)
    StartStates[Nt.StartState] = true;
  if (M.SkipState >= 0)
    StartStates[M.SkipState] = true;
  O += "static MR runNt(uint32_t st, const unsigned char *s, long pos, "
       "long len) {\n  switch (st) {\n";
  for (const auto &[St, Unused] : StartStates)
    O += format("  case %d: return parse_%d(s, pos, len, -1, pos);\n", St,
                St);
  O += "  default: return MR{-1, pos};\n  }\n}\n\n";

  // The one residual loop, driveImpl's (engine/Sink.h) sink contract: a
  // sink K says whether it walks the full pool (Markers) and wants a
  // call per scan (Enters), and what a lexeme, a marker and an
  // ε-fallback mean.
  O += "// The residual loop: an explicit stack of packed symbols; a matched "
       "lexeme's\n// tail continues directly into its first symbol. "
       "Returns 0, or -1 on a parse error.\n";
  O += "template <class K> long drive(const unsigned char *s, long len, K "
       "&k) {\n";
  O += "  const uint64_t *meta = K::Markers ? AccMeta : AccNtMeta;\n";
  O += "  const uint32_t *pool = K::Markers ? PackedPool : NtPool;\n";
  O += "  std::vector<uint32_t> stack;\n";
  O += format("  stack.push_back(0x%08xu);\n", M.packNt(M.Start));
  O += "  long pos = 0;\n";
  O += "  while (!stack.empty()) {\n";
  O += "    uint32_t e = stack.back();\n    stack.pop_back();\n";
  O += "    for (;;) {\n";
  O += "      if constexpr (K::Markers) {\n";
  O += "        if (e & 0x80000000u) {\n";
  O += "          k.marker(e & 0x7fffffffu);\n          break;\n"
       "        }\n      }\n";
  O += "      const uint32_t nt = (e >> 16) & 0x7fffu;\n";
  O += "      if constexpr (K::Enters)\n        k.enter(nt);\n";
  O += "      MR m = runNt(e & 0xffffu, s, pos, len);\n";
  if (Tiers.SelfSkip > 0) {
    O += format("      while ((uint32_t)m.best < %du) {\n", Tiers.SelfSkip);
    O += "        pos = m.end; // F2 whitespace: rescan in place\n";
    O += "        m = runNt(e & 0xffffu, s, pos, len);\n      }\n";
  }
  O += "      if (m.best >= 0) {\n";
  O += "        const uint64_t mt = meta[m.best];\n";
  O += "        k.token(mt, pos, m.end);\n        pos = m.end;\n";
  O += "        const uint32_t tl = (uint32_t)(mt >> 32) & 0xffffu;\n";
  O += "        if (tl == 0)\n          break;\n";
  O += "        const uint32_t to = (uint32_t)mt;\n";
  O += "        for (uint32_t j = tl; j-- > 1;)\n"
       "          stack.push_back(pool[to + j]);\n";
  O += "        e = pool[to];\n        continue;\n      }\n";
  O += "      if (NtEps[nt] < 0)\n        return -1;\n";
  O += "      k.eps(nt, NtEps[nt]);\n      break;\n    }\n  }\n";
  if (M.SkipState >= 0) {
    O += "  while (pos < len) { // absorb trailing skip lexemes\n";
    O += format("    MR m = runNt(%d, s, pos, len);\n", M.SkipState);
    O += "    if (m.best < 0 || m.end == pos)\n      break;\n";
    O += "    pos = m.end;\n  }\n";
  }
  O += "  return pos == len ? 0 : -1;\n}\n\n";

  // The sinks. Recognition counts the lexemes the loop resolves — every
  // one but F2 whitespace, which rescans inside the scan.
  O += "struct CountSink {\n"
       "  static constexpr bool Markers = false, Enters = false;\n"
       "  long n;\n"
       "  void enter(uint32_t) {}\n"
       "  void token(uint64_t, long, long) { ++n; }\n"
       "  void marker(uint32_t) {}\n"
       "  void eps(uint32_t, int32_t) {}\n"
       "};\n\n";
  // The library EventSink's stream: kind 0 Enter, 1 Token, 2 Reduce
  // (an OpPool index), 3 Eps; only a Token has a span.
  O += "typedef void (*EventFn)(void *user, int kind, long id, long begin, "
       "long end);\n"
       "struct EventSink {\n"
       "  static constexpr bool Markers = true, Enters = true;\n"
       "  EventFn ev;\n  void *user;\n  long n;\n"
       "  void emit(int kind, long id, long b, long e) {\n"
       "    if (ev)\n      ev(user, kind, id, b, e);\n    ++n;\n  }\n"
       "  void enter(uint32_t nt) { emit(0, nt, 0, 0); }\n"
       "  void token(uint64_t mt, long b, long e) {\n"
       "    if ((mt >> 48) != 0xffffu) // skip, or dead-token elision\n"
       "      emit(1, (long)(mt >> 48), b, e);\n  }\n"
       "  void marker(uint32_t op) { emit(2, op, 0, 0); }\n"
       "  void eps(uint32_t nt, int32_t) { emit(3, nt, 0, 0); }\n"
       "};\n\n";

  // The value machine: emitted only when every op the machine can run is
  // a scalar micro-op (valueOps), i.e. the grammar's semantics compile
  // entirely to the tagged switch dispatch the library engines run, with
  // long values and 0 placeholders for tokens.
  std::vector<uint32_t> EpsOff;
  const std::vector<MicroOp> Ops = valueOps(M, EpsOff);
  if (!Ops.empty()) {
    auto Field = [&](const char *Type, const char *Arr, auto Get) {
      O += cArray(Type, Arr, Ops.size(), [&](size_t I) {
        return format("%lld", static_cast<long long>(Get(Ops[I])));
      });
    };
    Field("uint8_t", "OpK", [](const MicroOp &Op) { return Op.K; });
    Field("uint8_t", "OpA", [](const MicroOp &Op) { return Op.Arity; });
    Field("int16_t", "OpS", [](const MicroOp &Op) { return Op.Sel; });
    Field("int16_t", "OpS2", [](const MicroOp &Op) { return Op.Sel2; });
    Field("long", "OpImm", [](const MicroOp &Op) { return Op.Imm; });
    O += cArray("uint32_t", "EpsOff", EpsOff.size(), [&](size_t I) {
      return format("%u", EpsOff[I]);
    });
    // The switch dispatch — the generated analogue of
    // ValueStack::applyMicroOp.
    O += "\nstruct ValueSink {\n"
         "  static constexpr bool Markers = true, Enters = false;\n"
         "  std::vector<long> vals;\n"
         "  void enter(uint32_t) {}\n"
         "  void token(uint64_t mt, long, long) {\n"
         "    if ((mt >> 48) != 0xffffu)\n      vals.push_back(0);\n  }\n"
         "  void marker(uint32_t op) { apply(op); }\n"
         "  void eps(uint32_t, int32_t c) {\n"
         "    for (uint32_t j = EpsOff[c]; j < EpsOff[c + 1]; ++j)\n"
         "      apply(j);\n  }\n"
         "  void apply(uint32_t a) {\n"
         "    const size_t base = vals.size() - OpA[a];\n"
         "    long r = 0;\n"
         "    switch (OpK[a]) {\n";
    O += format("    case %d: return;\n", MicroOp::MNop);
    O += format("    case %d: r = OpImm[a]; break;\n", MicroOp::MInt);
    O += format("    case %d: r = OpImm[a] != 0; break;\n", MicroOp::MBool);
    O += format("    case %d: r = vals[base + OpS[a]]; break;\n",
                MicroOp::MSelect);
    O += format("    case %d: r = vals[base + OpS[a]] + vals[base + "
                "OpS2[a]]; break;\n",
                MicroOp::MAddArgs);
    O += format("    case %d: r = vals[base + OpS[a]] + OpImm[a]; break;\n",
                MicroOp::MAddImm);
    O += "    default: break; // unit\n    }\n"
         "    vals.resize(base);\n    vals.push_back(r);\n  }\n};\n";
  }
  O += "\n} // namespace\n\n";

  // The entry points: one drive() instantiation each.
  O += "extern \"C\" long " + Name +
       "_parse(const char *input, size_t n) {\n"
       "  CountSink k{0};\n"
       "  return drive(reinterpret_cast<const unsigned char *>(input), "
       "(long)n, k) < 0 ? -1 : k.n;\n}\n\n";
  O += "extern \"C\" long " + Name +
       "_parse_events(const char *input, size_t n, EventFn ev, void *user) "
       "{\n"
       "  EventSink k{ev, user, 0};\n"
       "  return drive(reinterpret_cast<const unsigned char *>(input), "
       "(long)n, k) < 0 ? -1 : k.n;\n}\n";
  if (!Ops.empty())
    O += "\nextern \"C\" long " + Name +
         "_parse_value(const char *input, size_t n, long *out) {\n"
         "  ValueSink k;\n"
         "  if (drive(reinterpret_cast<const unsigned char *>(input), "
         "(long)n, k) < 0)\n    return -1;\n"
         "  *out = k.vals.size() == 1 ? k.vals[0] : 0;\n  return 0;\n}\n";
  return O;
}
