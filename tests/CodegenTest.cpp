//===- tests/CodegenTest.cpp - C++ emitter tests -------------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The emitter renders the staged machine as standalone C++ (the
/// MetaOCaml-artifact analogue, §5.5). Structural tests check the shape
/// against the paper's excerpt; the integration test compiles the emitted
/// source with the system compiler, loads it, and runs it against the
/// library engines.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"
#include "engine/Pipeline.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"
#include "support/StrUtil.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <fstream>

using namespace flap;

namespace {

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t Pos = Hay.find(Needle); Pos != std::string::npos;
       Pos = Hay.find(Needle, Pos + 1))
    ++N;
  return N;
}

TEST(CodegenTest, EmitsOneFunctionPerState) {
  auto P = compileFlap(makeSexpGrammar());
  ASSERT_TRUE(P.ok());
  std::string Src = emitCpp(P->M, "sexp");
  // Definitions: "static MR parse_K(... ) {" — one per machine state
  // (Table 1 "Output Functions").
  EXPECT_EQ(countOccurrences(Src, "static MR parse_"),
            2 * static_cast<size_t>(P->M.numStates())); // decl + def
  EXPECT_NE(Src.find("extern \"C\" long sexp_parse"), std::string::npos);
}

TEST(CodegenTest, UsesCharacterClassRanges) {
  auto P = compileFlap(makeSexpGrammar());
  ASSERT_TRUE(P.ok());
  std::string Src = emitCpp(P->M, "sexp");
  // The §5.5 character-class optimization: 'a'..'z' style range arms,
  // not 26 separate cases.
  EXPECT_NE(Src.find("case 97 ... 122:"), std::string::npos) << Src;
}

TEST(CodegenTest, EmitsForAllBenchmarks) {
  for (const auto &Def : allBenchmarkGrammars()) {
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok()) << Def->Name;
    std::string Src = emitCpp(P->M, Def->Name);
    EXPECT_GT(Src.size(), 1000u) << Def->Name;
    EXPECT_NE(Src.find("_parse(const char *input"), std::string::npos);
  }
}

/// Compiles emitted source into a shared object and dlopens it. Skips
/// (not fails) when no compiler is available.
class CompiledSo {
public:
  CompiledSo(const std::string &Src, const std::string &Name) {
    std::string Dir = ::testing::TempDir();
    SrcPath = Dir + "/flapgen_" + Name + ".cpp";
    SoPath = Dir + "/flapgen_" + Name + ".so";
    std::ofstream(SrcPath) << Src;
    std::string Cmd = "c++ -O2 -shared -fPIC -std=c++17 -o " + SoPath +
                      " " + SrcPath + " 2>/dev/null";
    if (std::system(Cmd.c_str()) != 0)
      return;
    Handle = dlopen(SoPath.c_str(), RTLD_NOW);
  }
  ~CompiledSo() {
    if (Handle)
      dlclose(Handle);
  }

  using ParseFn = long (*)(const char *, size_t);
  ParseFn fn(const std::string &Name) const {
    if (!Handle)
      return nullptr;
    return reinterpret_cast<ParseFn>(
        dlsym(Handle, (Name + "_parse").c_str()));
  }

  using ValueFn = long (*)(const char *, size_t, long *);
  ValueFn valueFn(const std::string &Name) const {
    if (!Handle)
      return nullptr;
    return reinterpret_cast<ValueFn>(
        dlsym(Handle, (Name + "_parse_value").c_str()));
  }

  using EventCb = void (*)(void *, int, long, long, long);
  using EventFn = long (*)(const char *, size_t, EventCb, void *);
  EventFn eventFn(const std::string &Name) const {
    if (!Handle)
      return nullptr;
    return reinterpret_cast<EventFn>(
        dlsym(Handle, (Name + "_parse_events").c_str()));
  }

private:
  std::string SrcPath, SoPath;
  void *Handle = nullptr;
};

TEST(CodegenTest, GeneratedParserRunsAndAgrees) {
  auto Def = makeSexpGrammar();
  auto P = compileFlap(Def);
  ASSERT_TRUE(P.ok());
  CompiledSo So(emitCpp(P->M, "sexp"), "sexp");
  auto Fn = So.fn("sexp");
  if (!Fn)
    GTEST_SKIP() << "no working system compiler for the generated code";

  CompiledLexer Lex(*Def->Re, P->Canon);
  Workload W = genWorkload("sexp", 11, 50000);
  // The generated recognizer returns the number of non-skip lexemes.
  auto Toks = Lex.lexAll(W.Input);
  ASSERT_TRUE(Toks.ok());
  EXPECT_EQ(Fn(W.Input.data(), W.Input.size()),
            static_cast<long>(Toks->size()));

  // Rejections return -1, matching the library engine's verdicts.
  for (const char *Bad : {"(", "(a))", "(!)", ""}) {
    EXPECT_EQ(Fn(Bad, strlen(Bad)) >= 0, P->parse(Bad).ok()) << Bad;
  }
  // Acceptance on a sweep of truncations agrees with the machine.
  std::string Base = "(ab (cd) e)";
  for (size_t Cut = 0; Cut <= Base.size(); ++Cut) {
    std::string In = Base.substr(0, Cut);
    EXPECT_EQ(Fn(In.data(), In.size()) >= 0, P->parse(In).ok()) << In;
  }
}

TEST(CodegenTest, EmitsValueMachineOnlyForMicroOpGrammars) {
  // sexp/json compile every action to a scalar micro-op → value entry
  // point; ppm has custom actions → no value entry point.
  auto PS = compileFlap(makeSexpGrammar());
  ASSERT_TRUE(PS.ok());
  EXPECT_NE(emitCpp(PS->M, "sexp").find("sexp_parse_value"),
            std::string::npos);
  auto PP = compileFlap(makePpmGrammar());
  ASSERT_TRUE(PP.ok());
  EXPECT_EQ(emitCpp(PP->M, "ppm").find("ppm_parse_value"),
            std::string::npos);
}

TEST(CodegenTest, GeneratedValueMachineAgrees) {
  // The emitted switch-dispatch value machine must compute the same
  // semantic value as the library engines, and reject the same inputs.
  for (const char *Name : {"sexp", "json"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok());
    CompiledSo So(emitCpp(P->M, Name), std::string("val_") + Name);
    auto Fn = So.valueFn(Name);
    if (!Fn)
      GTEST_SKIP() << "no working system compiler for the generated code";

    Workload W = genWorkload(Name, 21, 40000);
    Result<Value> Lib = P->parse(W.Input);
    ASSERT_TRUE(Lib.ok());
    long Out = -999;
    ASSERT_EQ(Fn(W.Input.data(), W.Input.size(), &Out), 0) << Name;
    EXPECT_EQ(Out, static_cast<long>(Lib->asInt())) << Name;

    // Rejections agree with the library verdicts, acceptance values on
    // a truncation sweep too.
    std::string Base = Name == std::string("sexp")
                           ? "(ab (cd e) (f))"
                           : "{\"k\": [1, {}, {\"x\": 2}]}";
    for (size_t Cut = 0; Cut <= Base.size(); ++Cut) {
      std::string In = Base.substr(0, Cut);
      Result<Value> L = P->parse(In);
      long V = -999;
      long St = Fn(In.data(), In.size(), &V);
      ASSERT_EQ(St == 0, L.ok()) << Name << " '" << In << "'";
      if (L.ok())
        EXPECT_EQ(V, static_cast<long>(L->asInt())) << Name << " '" << In
                                                    << "'";
    }
  }
}

/// One generated-driver event, as delivered through the C callback.
struct GenEvent {
  int Kind; // 0 Enter, 1 Token, 2 Reduce, 3 Eps (library EventKind order)
  long Id, Begin, End;
};

TEST(CodegenTest, EmitsEventEntryPointForAllBenchmarks) {
  // Unlike the value machine, the event driver exists for *every*
  // grammar — it reports the symbol stream instead of executing it, so
  // custom actions are no obstacle.
  for (const auto &Def : allBenchmarkGrammars()) {
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok()) << Def->Name;
    EXPECT_NE(emitCpp(P->M, Def->Name).find(Def->Name + "_parse_events"),
              std::string::npos)
        << Def->Name;
  }
}

TEST(CodegenTest, GeneratedEventDriverReplaysToLibraryValue) {
  // The generated event stream carries the *unrewritten* symbols (raw
  // ActionIds, every pushed token — the stream the Fig. 9 reference
  // interpreter runs), so replaying token pushes and action
  // applications in order must reproduce the library engines' value.
  for (const char *Name : {"sexp", "json"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok());
    CompiledSo So(emitCpp(P->M, Name), std::string("ev_") + Name);
    auto Fn = So.eventFn(Name);
    if (!Fn)
      GTEST_SKIP() << "no working system compiler for the generated code";

    Workload W = genWorkload(Name, 27, 20000);
    std::vector<GenEvent> Evs;
    auto Cb = [](void *U, int K, long Id, long B, long E) {
      static_cast<std::vector<GenEvent> *>(U)->push_back({K, Id, B, E});
    };
    long N = Fn(W.Input.data(), W.Input.size(), Cb, &Evs);
    ASSERT_GE(N, 0) << Name;
    EXPECT_EQ(static_cast<size_t>(N), Evs.size()) << Name;

    // Replay over the library's action table (the reference
    // interpreter's semantics: unelided stream, raw ActionIds).
    const ActionTable &AT = Def->L->Actions;
    ParseContext Ctx{W.Input, nullptr};
    ValueStack Vals;
    for (const GenEvent &E : Evs) {
      switch (E.Kind) {
      case 0:
        break; // Enter
      case 1:
        Vals.push(Value::token(static_cast<TokenId>(E.Id),
                               static_cast<uint32_t>(E.Begin),
                               static_cast<uint32_t>(E.End)));
        break;
      case 2:
        Vals.applyMicro(AT, static_cast<ActionId>(E.Id), Ctx);
        break;
      case 3: {
        const auto &Info = P->M.Nts[E.Id];
        ASSERT_GE(Info.EpsChain, 0) << Name;
        const std::vector<ActionId> &Chain = P->M.EpsChains[Info.EpsChain];
        if (Chain.empty())
          Vals.push(Value::unit());
        else
          for (ActionId A : Chain)
            Vals.applyMicro(AT, A, Ctx);
        break;
      }
      default:
        FAIL() << "unknown event kind " << E.Kind;
      }
    }
    Result<Value> Lib = P->parse(W.Input);
    ASSERT_TRUE(Lib.ok()) << Name;
    EXPECT_EQ(*Lib, Vals.collect()) << Name << " generated-event replay";

    // Rejections agree on a truncation sweep; a null callback is legal.
    std::string Base = Name == std::string("sexp")
                           ? "(ab (cd e) (f))"
                           : "{\"k\": [1, {}, {\"x\": 2}]}";
    for (size_t Cut = 0; Cut <= Base.size(); ++Cut) {
      std::string In = Base.substr(0, Cut);
      EXPECT_EQ(Fn(In.data(), In.size(), nullptr, nullptr) >= 0,
                P->parse(In).ok())
          << Name << " '" << In << "'";
    }
  }
}

TEST(CodegenTest, GeneratedJsonParserAgrees) {
  auto Def = makeJsonGrammar();
  auto P = compileFlap(Def);
  ASSERT_TRUE(P.ok());
  CompiledSo So(emitCpp(P->M, "json"), "json");
  auto Fn = So.fn("json");
  if (!Fn)
    GTEST_SKIP() << "no working system compiler for the generated code";
  Workload W = genWorkload("json", 12, 30000);
  EXPECT_GE(Fn(W.Input.data(), W.Input.size()), 0);
  for (const char *Bad : {"{", "[1,]", "tru"})
    EXPECT_LT(Fn(Bad, strlen(Bad)), 0) << Bad;
}

} // namespace
