//===- perfbench/src/Baselines.cpp - Fidelity references -----------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's fidelity references: flap against the paper's
/// baselines on the same corpora, as geomeans over the six grammars.
///
///   paper.speedup_vs_ocamlyacc  flap parse / LALR(1) tables over a
///                               materialized token stream
///   paper.fusion_speedup        flap parse / the same normalized grammar
///                               unfused (pull lexer + DGNF parser)
///   codegen.recognize_ratio     library recognize / the emitted C++
///                               recognizer, compiled with the system
///                               compiler and loaded at run time
///
/// They move no end-to-end metric; they say whether the reproduction
/// still shows the paper's shape.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "baselines/Bnf.h"
#include "baselines/Lalr.h"
#include "codegen/CppEmitter.h"
#include "engine/Pipeline.h"
#include "engine/Unfused.h"
#include "lexer/CompiledLexer.h"
#include "workloads/Workloads.h"

#include <cstdlib>
#include <dlfcn.h>
#include <fstream>
#include <functional>
#include <sys/stat.h>

using namespace perfbench;
using namespace flap;

namespace {

constexpr size_t RefBytes = 500'000;

using EmittedFn = long (*)(const char *, size_t);

/// Compiles the emitted recognizer for \p P into WorkDir (reusing a
/// library built from identical source) and loads it; null on failure.
EmittedFn loadEmitted(const FlapParser &P, const std::string &Name,
                      const std::string &WorkDir) {
  const std::string Src = emitCpp(P.M, Name);
  const std::string Base = WorkDir + "/codegen-" + Name + "-" +
                           std::to_string(std::hash<std::string>()(Src));
  const std::string So = Base + ".so";
  struct stat St {};
  if (stat(So.c_str(), &St) != 0) {
    std::ofstream(Base + ".cpp") << Src;
    const std::string Cmd = std::string(PERFBENCH_CXX) +
                            " -O2 -shared -fPIC -std=c++17 -o " + So + " " +
                            Base + ".cpp";
    if (std::system(Cmd.c_str()) != 0)
      return nullptr;
  }
  void *H = dlopen(So.c_str(), RTLD_NOW);
  if (!H)
    return nullptr;
  return reinterpret_cast<EmittedFn>(dlsym(H, (Name + "_parse").c_str()));
}

} // namespace

void perfbench::runPaperRefs(RunCtx &C) {
  Report &R = *C.R;
  std::vector<double> VsYacc, VsUnfused, VsCodegen;
  for (const std::string &Name : grammarOrder()) {
    std::shared_ptr<GrammarDef> Def = makeGrammar(Name);
    Result<FlapParser> PR = compileFlap(Def);
    Result<BnfGrammar> Bnf =
        PR.ok() ? lowerToBnf(Def->L->Arena, Def->Root.Id)
                : Result<BnfGrammar>(Err("not compiled"));
    Result<LalrParser> Lalr =
        Bnf.ok() ? LalrParser::build(*Bnf, Def->Toks->size(), Def->Toks.get())
                 : Result<LalrParser>(Err("no bnf"));
    if (!PR.ok() || !Lalr.ok()) {
      R.check(false, Name + ": baseline construction failed");
      continue;
    }
    FlapParser P = PR.take();
    CompiledLexer Lex(*Def->Re, P.Canon);
    UnfusedParser Unfused(*Def->Re, P.Canon, P.G, Def->L->Actions,
                          Def->Toks->size());
    EmittedFn Emitted = loadEmitted(P, Name, C.WorkDir);
    R.check(Emitted != nullptr, Name + ": emitted recognizer unavailable");

    const Workload W = genCorpus(
        Name, C.Seed, static_cast<size_t>(static_cast<double>(RefBytes) *
                                          C.Scale));
    const std::string_view In = W.Input;
    auto Fresh = [&] { return Def->NewCtx ? Def->NewCtx() : nullptr; };
    ParseScratch Scratch;
    const std::vector<std::function<bool()>> Engines = {
        [&] { // flap parse
          auto Ctx = Fresh();
          return P.M.parse(In, Scratch, Ctx.get()).ok();
        },
        [&] { // ocamlyacc proxy
          auto Toks = Lex.lexAll(In);
          auto Ctx = Fresh();
          return Toks.ok() &&
                 Lalr->parse(*Toks, Def->L->Actions, In, Ctx.get()).ok();
        },
        [&] { // normalized, unfused
          auto Ctx = Fresh();
          return Unfused.parse(In, Ctx.get()).ok();
        },
        [&] { return P.M.recognize(In, Scratch); },
        [&] { return Emitted && Emitted(In.data(), In.size()) >= 0; },
    };
    std::vector<std::vector<double>> T(Engines.size());
    for (int Round = 0; Round < 6; ++Round)
      for (size_t E = 0; E < Engines.size(); ++E) {
        const int64_t T0 = nowNs();
        const bool Ok = Engines[E]();
        T[E].push_back(static_cast<double>(nowNs() - T0));
        R.check(Ok, Name + ": reference engine " + std::to_string(E) +
                        " rejects the corpus");
      }
    VsYacc.push_back(median(T[1]) / median(T[0]));
    VsUnfused.push_back(median(T[2]) / median(T[0]));
    if (Emitted)
      VsCodegen.push_back(median(T[4]) / median(T[3]));
  }
  R.layer("paper.speedup_vs_ocamlyacc", geomean(VsYacc), "ratio");
  R.layer("paper.fusion_speedup", geomean(VsUnfused), "ratio");
  R.layer("codegen.recognize_ratio", geomean(VsCodegen), "ratio");
}
