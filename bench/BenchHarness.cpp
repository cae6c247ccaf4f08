//===- bench/BenchHarness.cpp - Shared benchmark scaffolding -------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "baselines/Bnf.h"
#include "codegen/CppEmitter.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <fstream>
#include <memory>

using namespace flapbench;
using namespace flap;

namespace {

//===----------------------------------------------------------------------===//
// flap(prePR): the staged machine without run-skip acceleration,
// first-byte dispatch, dead-token elision or pooling — a byte-at-a-time
// walk of the transition table with a dependent AcceptCont load per
// byte, per-parse stacks, and every action applied through
// ValueStack::apply with heap values over the unrewritten symbol
// stream. Measurement only: it reads
// CompiledParser's public tables, and nothing but the bench's accept
// gate checks it (the engine's reference is engine/FusedInterp.h).
//===----------------------------------------------------------------------===//

struct WalkMatch {
  int32_t Cont = -1; ///< accepting continuation of the longest match
  size_t End = 0;
};

template <typename Tab>
WalkMatch walkScanT(const ScanTables &T, const int32_t *Acc, int32_t Start,
                    std::string_view In, size_t Pos) {
  const typename Tab::Cell *Trans = Tab::table(T);
  WalkMatch W{-1, Pos};
  int32_t Cur = Start;
  for (size_t I = Pos; I < In.size();) {
    const typename Tab::Cell Next =
        Trans[static_cast<size_t>(Cur) * 256 +
              static_cast<unsigned char>(In[I])];
    if (Tab::dead(Next))
      break;
    Cur = Next;
    ++I;
    if (Acc[Cur] >= 0)
      W = {Acc[Cur], I};
  }
  return W;
}

WalkMatch walkScan(const CompiledParser &M, int32_t Start,
                   std::string_view In, size_t Pos) {
  return scankernel::withWidth(M.Scan, [&](auto Width) {
    return walkScanT<decltype(Width)>(M.Scan, M.AcceptCont.data(), Start,
                                      In, Pos);
  });
}

/// Parses (\p Build) or recognizes \p In from M.Start; true on success.
template <bool Build>
bool prePRWalk(const CompiledParser &M, std::string_view In, void *User) {
  ParseContext Ctx{In, User, 0, nullptr};
  ValueStack Values;
  std::vector<Sym> Stack{Sym::nt(M.Start)};
  size_t Pos = 0;
  while (!Stack.empty()) {
    const Sym S = Stack.back();
    Stack.pop_back();
    if (!S.isNt()) {
      Values.apply(M.Actions->get(static_cast<ActionId>(S.Idx)), Ctx);
      continue;
    }
    const CompiledParser::NtInfo &Info = M.Nts[S.Idx];
    WalkMatch W = walkScan(M, Info.StartState, In, Pos);
    while (W.Cont >= 0 && M.Conts[W.Cont].SelfSkip) { // F2 whitespace
      Pos = W.End;
      W = walkScan(M, Info.StartState, In, Pos);
    }
    if (W.Cont >= 0) {
      const CompiledParser::Cont &K = M.Conts[W.Cont];
      if (Build && K.PushTok != NoToken)
        Values.push(Value::token(K.PushTok, static_cast<uint32_t>(Pos),
                                 static_cast<uint32_t>(W.End)));
      Pos = W.End;
      const Sym *T = M.tail(K);
      for (uint32_t J = K.TailLen; J-- > 0;)
        if (Build || T[J].isNt())
          Stack.push_back(T[J]);
      continue;
    }
    if (Info.EpsChain < 0)
      return false;
    if (Build) {
      const std::vector<ActionId> &Chain = M.EpsChains[Info.EpsChain];
      if (Chain.empty())
        Values.push(Value::unit());
      for (ActionId A : Chain)
        Values.apply(M.Actions->get(A), Ctx);
    }
  }
  while (M.SkipState >= 0 && Pos < In.size()) { // trailing skip input
    WalkMatch W = walkScan(M, M.SkipState, In, Pos);
    if (W.Cont < 0 || W.End == Pos)
      break;
    Pos = W.End;
  }
  if (Pos != In.size())
    return false;
  if (Build)
    Values.collect();
  return true;
}

} // namespace

EngineSet flapbench::EngineSet::build(std::shared_ptr<GrammarDef> Def) {
  EngineSet E;
  E.Def = Def;
  auto P = compileFlap(Def);
  if (!P) {
    std::fprintf(stderr, "fatal: %s\n", P.error().c_str());
    std::abort();
  }
  E.P = P.take();
  auto Bnf = lowerToBnf(Def->L->Arena, Def->Root.Id);
  if (!Bnf) {
    std::fprintf(stderr, "fatal: %s\n", Bnf.error().c_str());
    std::abort();
  }
  auto Lalr = LalrParser::build(*Bnf, Def->Toks->size(), Def->Toks.get());
  if (!Lalr) {
    std::fprintf(stderr, "fatal: %s\n", Lalr.error().c_str());
    std::abort();
  }
  E.Lalr = std::make_unique<LalrParser>(Lalr.take());
  E.Lex = std::make_unique<CompiledLexer>(*Def->Re, E.P.Canon);
  E.TT = buildTokenTables(E.P.G, Def->Toks->size());
  E.Parts = std::make_unique<PartsStreamParser>(
      *Def->Re, E.P.Canon, E.P.G, Def->L->Actions, Def->Toks->size());
  E.Unfused = std::make_unique<UnfusedParser>(
      *Def->Re, E.P.Canon, E.P.G, Def->L->Actions, Def->Toks->size());
  return E;
}

std::vector<NamedEngine> flapbench::fig11Engines(EngineSet &E) {
  auto Def = E.Def;
  auto Fresh = [Def]() {
    return Def->NewCtx ? Def->NewCtx() : std::shared_ptr<void>();
  };

  std::vector<NamedEngine> Out;
  // (a) ocamlyacc proxy: LALR tables, tokens materialized up front.
  Out.push_back({"ocamlyacc", [&E, Fresh](std::string_view In) {
                   auto Toks = E.Lex->lexAll(In);
                   if (!Toks.ok())
                     return false;
                   auto Ctx = Fresh();
                   return E.Lalr
                       ->parse(*Toks, E.Def->L->Actions, In, Ctx.get())
                       .ok();
                 }});
  // (b) menhir+table: same algorithm class; measured as a second run of
  // the LALR table driver (documented in EXPERIMENTS.md).
  Out.push_back({"menhir+table", Out.back().Run});
  // (c) menhir+code proxy: direct-coded recursive descent over tokens.
  Out.push_back({"menhir+code", [&E, Fresh](std::string_view In) {
                   auto Toks = E.Lex->lexAll(In);
                   if (!Toks.ok())
                     return false;
                   auto Ctx = Fresh();
                   return parseRdTokens(E.TT, E.Def->L->Actions, *Toks, In,
                                        Ctx.get())
                       .ok();
                 }});
  // (d) flap: the staged fused machine, run-skip accelerated, reusing a
  // scratch across parses (the allocation-free hot entry point).
  auto Scratch = std::make_shared<ParseScratch>();
  Out.push_back({"flap", [&E, Fresh, Scratch](std::string_view In) {
                   auto Ctx = Fresh();
                   return E.P.M.parse(In, *Scratch, Ctx.get()).ok();
                 }});
  // (d') the same machine through the pre-PR byte-at-a-time table walk —
  // the recorded baseline the run-skip speedup is measured against.
  Out.push_back({"flap(prePR)", [&E, Fresh](std::string_view In) {
                   auto Ctx = Fresh();
                   return prePRWalk<true>(E.P.M, In, Ctx.get());
                 }});
  // (g) normalized but unfused.
  Out.push_back({"normalized", [&E, Fresh](std::string_view In) {
                   auto Ctx = Fresh();
                   return E.Unfused->parse(In, Ctx.get()).ok();
                 }});
  // (e) asp proxy: typed-CFE token dispatch over materialized tokens.
  Out.push_back({"asp", [&E, Fresh](std::string_view In) {
                   auto Toks = E.Lex->lexAll(In);
                   if (!Toks.ok())
                     return false;
                   auto Ctx = Fresh();
                   return parseAspTokens(E.TT, E.Def->L->Actions, *Toks,
                                         In, Ctx.get())
                       .ok();
                 }});
  // (f) ParTS proxy: pull-stream recursive descent.
  Out.push_back({"ParTS", [&E, Fresh](std::string_view In) {
                   auto Ctx = Fresh();
                   return E.Parts->parse(In, Ctx.get()).ok();
                 }});
  return Out;
}

std::vector<NamedEngine> flapbench::recognitionEngines(EngineSet &E) {
  std::vector<NamedEngine> Out;
  Out.push_back({"ocamlyacc", [&E](std::string_view In) {
                   auto Toks = E.Lex->lexAll(In);
                   return Toks.ok() && E.Lalr->recognize(*Toks);
                 }});
  Out.push_back({"menhir+table", Out.back().Run});
  Out.push_back({"menhir+code", [&E](std::string_view In) {
                   auto Toks = E.Lex->lexAll(In);
                   return Toks.ok() && recognizeRdTokens(E.TT, *Toks);
                 }});
  auto Scratch = std::make_shared<ParseScratch>();
  Out.push_back({"flap", [&E, Scratch](std::string_view In) {
                   return E.P.M.recognize(In, *Scratch);
                 }});
  Out.push_back({"flap(prePR)", [&E](std::string_view In) {
                   return prePRWalk<false>(E.P.M, In, nullptr);
                 }});
  Out.push_back({"normalized", [&E](std::string_view In) {
                   return E.Unfused->recognize(In);
                 }});
  Out.push_back({"asp", [&E](std::string_view In) {
                   auto Toks = E.Lex->lexAll(In);
                   return Toks.ok() && recognizeAspTokens(E.TT, *Toks);
                 }});
  Out.push_back({"ParTS", [&E](std::string_view In) {
                   return E.Parts->recognize(In);
                 }});

  // flap codegen: stage through the system C++ compiler (the MetaOCaml
  // analogue). The emitted entry point returns the lexeme count, or -1
  // on a parse error.
  std::string Dir = "/tmp";
  std::string Src = Dir + "/flapbench_" + E.Def->Name + ".cpp";
  std::string So = Dir + "/flapbench_" + E.Def->Name + ".so";
  std::ofstream(Src) << emitCpp(E.P.M, E.Def->Name);
  std::string Cmd =
      "c++ -O2 -shared -fPIC -std=c++17 -o " + So + " " + Src +
      " 2>/dev/null";
  if (std::system(Cmd.c_str()) == 0) {
    if (void *H = dlopen(So.c_str(), RTLD_NOW)) {
      using Fn = long (*)(const char *, size_t);
      Fn F = reinterpret_cast<Fn>(
          dlsym(H, (E.Def->Name + "_parse").c_str()));
      if (F)
        Out.push_back({"flap codegen", [F](std::string_view In) {
                         return F(In.data(), In.size()) >= 0;
                       }});
    }
  }
  return Out;
}

double flapbench::throughputMBs(const NamedEngine &E, std::string_view In,
                                double MinSeconds) {
  // Warm-up and correctness gate.
  if (!E.Run(In)) {
    std::fprintf(stderr, "fatal: engine '%s' rejects its benchmark input\n",
                 E.Name.c_str());
    std::abort();
  }
  double Best = 0;
  double Elapsed = 0;
  int Runs = 0;
  while (Elapsed < MinSeconds || Runs < 5) {
    Stopwatch W;
    E.Run(In);
    double S = W.seconds();
    Elapsed += S;
    ++Runs;
    double MBs = In.size() / 1e6 / S;
    if (MBs > Best)
      Best = MBs;
  }
  return Best;
}

const std::vector<std::string> &flapbench::fig11Order() {
  static const std::vector<std::string> Order = {"json", "sexp", "arith",
                                                 "pgn",  "ppm",  "csv"};
  return Order;
}

double flapbench::benchScale() {
  if (const char *S = std::getenv("FLAP_BENCH_SCALE"))
    return std::atof(S) > 0 ? std::atof(S) : 1.0;
  return 1.0;
}
