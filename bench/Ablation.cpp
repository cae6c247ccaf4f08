//===- bench/Ablation.cpp - Design-choice ablations ----------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Prices the individual design choices that make flap fast, on the sexp
/// and json grammars:
///
///   1. staging (§5.4): the compiled machine vs the Fig. 9 interpreter
///      that computes derivatives during parsing;
///   2. fusion  (§4):   the compiled fused machine vs the normalized-
///      but-unfused token-stream engine;
///   3. values:         full semantic-action parsing vs pure recognition;
///   4. the appendix-A alias collapse: machine size and compile time
///      with and without it.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"
#include "engine/FusedInterp.h"
#include "support/Timer.h"

#include <cstdio>

using namespace flapbench;
using namespace flap;

int main() {
  const double Scale = benchScale();
  std::printf("Ablations — what each design choice buys (MB/s)\n\n");

  for (const char *Name : {"sexp", "json"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    EngineSet E = EngineSet::build(Def);

    Workload Big = genWorkload(Name, 3,
                               static_cast<size_t>(2'000'000 * Scale));
    // The unstaged interpreter is orders of magnitude slower; give it a
    // small corpus and scale.
    Workload Small = genWorkload(Name, 3,
                                 static_cast<size_t>(40'000 * Scale));

    ParseScratch Scratch;
    NamedEngine Staged{"flap (staged)", [&](std::string_view In) {
                         auto Ctx = Def->NewCtx ? Def->NewCtx()
                                                : std::shared_ptr<void>();
                         return E.P.parse(In, Ctx.get()).ok();
                       }};
    NamedEngine Interp{"fused interp (Fig. 9, unstaged)",
                       [&](std::string_view In) {
                         auto Ctx = Def->NewCtx ? Def->NewCtx()
                                                : std::shared_ptr<void>();
                         return parseFusedInterp(*Def->Re, E.P.F,
                                                 Def->L->Actions, In,
                                                 Ctx.get())
                             .ok();
                       }};
    NamedEngine Recognize{"flap recognize (no values)",
                          [&](std::string_view In) {
                            return E.P.M.recognize(In, Scratch);
                          }};
    NamedEngine Unfused{"normalized unfused", [&](std::string_view In) {
                          auto Ctx = Def->NewCtx
                                         ? Def->NewCtx()
                                         : std::shared_ptr<void>();
                          return E.Unfused->parse(In, Ctx.get()).ok();
                        }};

    // Longer windows than Fig. 11: these four numbers feed ratio
    // claims, so ride out scheduler transients on shared hardware.
    double TStaged = throughputMBs(Staged, Big.Input, 0.6);
    double TInterp = throughputMBs(Interp, Small.Input, 0.6);
    double TRecog = throughputMBs(Recognize, Big.Input, 0.6);
    double TUnfused = throughputMBs(Unfused, Big.Input, 0.6);

    std::printf("[%s]\n", Name);
    std::printf("  %-34s %9.1f MB/s\n", Staged.Name.c_str(), TStaged);
    std::printf("  %-34s %9.1f MB/s   (staging buys %.0fx)\n",
                Interp.Name.c_str(), TInterp, TStaged / TInterp);
    std::printf("  %-34s %9.1f MB/s   (fusion buys %.1fx)\n",
                Unfused.Name.c_str(), TUnfused, TStaged / TUnfused);
    std::printf("  %-34s %9.1f MB/s   (value machinery costs %.0f%%)\n",
                Recognize.Name.c_str(), TRecog,
                100.0 * (1 - TStaged / TRecog));

    // Alias-collapse ablation: grammar/machine size & compile time.
    for (bool Collapse : {true, false}) {
      NormalizeOptions Opts;
      Opts.CollapseVarAliases = Collapse;
      std::shared_ptr<GrammarDef> Fresh;
      for (auto &G : allBenchmarkGrammars())
        if (G->Name == Name)
          Fresh = G;
      auto P = compileFlap(Fresh, Opts);
      if (!P) {
        std::fprintf(stderr, "fatal: %s\n", P.error().c_str());
        return 1;
      }
      std::printf("  alias collapse %-3s: %3zu NTs, %3zu prods, %4zu "
                  "states, compile %.2f ms\n",
                  Collapse ? "on" : "off", P->Sizes.NumNts,
                  P->Sizes.NumProds, P->Sizes.OutputFunctions,
                  P->Times.totalMs());
    }
    std::printf("\n");
  }
  return 0;
}
