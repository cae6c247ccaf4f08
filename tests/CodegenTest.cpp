//===- tests/CodegenTest.cpp - C++ emitter tests -------------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The emitter renders the staged machine as standalone C++ (the
/// MetaOCaml-artifact analogue, §5.5). Structural tests check the shape
/// against the paper's excerpt; the integration tests compile every
/// benchmark grammar's emitted source with the system compiler — once
/// with the SIMD run-skip kernels and once with -DFLAP_NO_SIMD (the
/// portable word loops), both under -Wall -Wextra -Werror — load it, and
/// hold its three entry points to the library: the recognizer's lexeme
/// count and verdicts, the event stream event for event, and the value.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"
#include "engine/Pipeline.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <fstream>
#include <set>
#include <sstream>
#include <unistd.h>

using namespace flap;

namespace {

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t Pos = Hay.find(Needle); Pos != std::string::npos;
       Pos = Hay.find(Needle, Pos + 1))
    ++N;
  return N;
}

std::shared_ptr<GrammarDef> benchmarkGrammar(const std::string &Name) {
  for (auto &G : allBenchmarkGrammars())
    if (G->Name == Name)
      return G;
  return nullptr;
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

TEST(CodegenTest, EmitsOneDriverForAllBenchmarks) {
  // Every grammar gets the recognizer and the event entry; each entry
  // instantiates the one residual loop with its own sink.
  for (const auto &Def : allBenchmarkGrammars()) {
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok()) << Def->Name;
    std::string Src = emitCpp(P->M, Def->Name);
    EXPECT_EQ(countOccurrences(Src, "template <class K> long drive("), 1u)
        << Def->Name;
    EXPECT_EQ(countOccurrences(Src, "while (!stack.empty())"), 1u)
        << Def->Name;
    EXPECT_NE(Src.find(Def->Name + "_parse(const char *input"),
              std::string::npos)
        << Def->Name;
    EXPECT_NE(Src.find(Def->Name + "_parse_events(const char *input"),
              std::string::npos)
        << Def->Name;
    EXPECT_EQ(countOccurrences(Src, "extern \"C\""),
              countOccurrences(Src, "  return drive(") +
                  countOccurrences(Src, "  if (drive("))
        << Def->Name;
  }
}

TEST(CodegenTest, EmitsValueMachineOnlyForMicroOpGrammars) {
  // The value entry exists where every op the machine runs is a scalar
  // micro-op: sexp and json. The other four run custom actions (or read
  // lexeme text). Pinned so the set cannot shrink unnoticed.
  std::set<std::string> WithValues;
  for (const auto &Def : allBenchmarkGrammars()) {
    auto P = compileFlap(Def);
    ASSERT_TRUE(P.ok()) << Def->Name;
    if (emitCpp(P->M, Def->Name).find(Def->Name + "_parse_value") !=
        std::string::npos)
      WithValues.insert(Def->Name);
  }
  EXPECT_EQ(WithValues, (std::set<std::string>{"json", "sexp"}));
}

/// True when the system compiler builds a trivial shared object. Probed
/// once: only a missing compiler skips the integration tests — emitted
/// code that does not compile fails them.
bool haveCompiler() {
  static const bool Ok = [] {
    const std::string Base = ::testing::TempDir() + "/flapgen_probe_" +
                             std::to_string(getpid());
    std::ofstream(Base + ".cpp") << "extern \"C\" int probe() { return 1; }\n";
    const std::string Cmd = "c++ -shared -fPIC -o " + Base + ".so " + Base +
                            ".cpp >/dev/null 2>&1";
    const bool Built = std::system(Cmd.c_str()) == 0;
    std::remove((Base + ".cpp").c_str());
    std::remove((Base + ".so").c_str());
    return Built;
  }();
  return Ok;
}

/// The two builds of one emitted source: the SIMD run-skip kernels and
/// the portable word loops.
enum Variant { Simd, NoSimd, NumVariants };
const char *const VariantFlags[NumVariants] = {"", " -DFLAP_NO_SIMD"};
const char *const VariantNames[NumVariants] = {"simd", "nosimd"};

/// One grammar's emitted source compiled into both variants (the two
/// compiler runs in parallel) and dlopened. log() holds a failed
/// build's compiler output.
class EmittedBuilds {
public:
  EmittedBuilds(const std::string &Src, const std::string &Name)
      : Name(Name) {
    Base = ::testing::TempDir() + "/flapgen_" + Name + "_" +
           std::to_string(getpid());
    std::ofstream(Base + ".cpp") << Src;
    std::string Cmd;
    for (int V = 0; V < NumVariants; ++V) {
      const std::string Out = path(V, "");
      Cmd += "(c++ -O2 -shared -fPIC -std=c++17 -Wall -Wextra -Werror" +
             std::string(VariantFlags[V]) + " -o " + Out + ".so " + Base +
             ".cpp >" + Out + ".log 2>&1; echo $? >" + Out + ".rc) & ";
    }
    std::system((Cmd + "wait").c_str());
    for (int V = 0; V < NumVariants; ++V) {
      int Rc = -1;
      std::ifstream(path(V, ".rc")) >> Rc;
      std::stringstream Log;
      Log << std::ifstream(path(V, ".log")).rdbuf();
      Logs[V] = Log.str();
      if (Rc != 0)
        Logs[V] += "(c++ exit status " + std::to_string(Rc) + ")";
      else if (!(Handles[V] = dlopen(path(V, ".so").c_str(), RTLD_NOW)))
        Logs[V] += dlerror();
      for (const char *Ext : {".so", ".rc", ".log"})
        std::remove(path(V, Ext).c_str());
    }
    std::remove((Base + ".cpp").c_str());
  }
  ~EmittedBuilds() {
    for (void *H : Handles)
      if (H)
        dlclose(H);
  }

  bool ok(int V) const { return Handles[V] != nullptr; }
  const std::string &log(int V) const { return Logs[V]; }

  template <typename Fn> Fn fn(int V, const char *Suffix) const {
    return reinterpret_cast<Fn>(dlsym(Handles[V], (Name + Suffix).c_str()));
  }

private:
  std::string path(int V, const char *Ext) const {
    return Base + "_" + VariantNames[V] + Ext;
  }

  std::string Name, Base;
  void *Handles[NumVariants] = {nullptr, nullptr};
  std::string Logs[NumVariants];
};

using ParseFn = long (*)(const char *, size_t);
using EventCb = void (*)(void *, int, long, long, long);
using EventFn = long (*)(const char *, size_t, EventCb, void *);
using ValueFn = long (*)(const char *, size_t, long *);

/// One generated-driver event, as delivered through the C callback.
struct GenEvent {
  int Kind; // 0 Enter, 1 Token, 2 Reduce, 3 Eps (library EventKind order)
  long Id, Begin, End;
};

/// Hand-written inputs swept by truncation beside the generated ones.
std::vector<std::string> extraInputs(const std::string &Name) {
  if (Name == "sexp")
    return {"(ab (cd e) (f))", "(a))", "(!)"};
  if (Name == "json")
    return {"{\"k\": [1, {}, {\"x\": 2}]}", "[1,]", "tru"};
  return {};
}

class GeneratedParser : public ::testing::TestWithParam<const char *> {};

/// Each entry point of both builds against the library, on a seeded
/// corpus and on every truncation of a few short documents:
///   - <name>_parse: the verdict of run(Recognize), and on acceptance
///     the number of non-skip lexemes (lexAll's count);
///   - <name>_parse_events: run(Events)'s stream, event for event (kind,
///     id, Begin, end()) — on a rejection, the events delivered before
///     -1 equal the events the library outcome keeps;
///   - <name>_parse_value, where emitted: the library value.
TEST_P(GeneratedParser, AgreesWithTheLibrary) {
  const std::string Name = GetParam();
  if (!haveCompiler())
    GTEST_SKIP() << "no working system compiler for the generated code";
  auto Def = benchmarkGrammar(Name);
  ASSERT_NE(Def, nullptr);
  auto P = compileFlap(Def);
  ASSERT_TRUE(P.ok()) << P.error();
  const std::string Src = emitCpp(P->M, Name);
  const bool HasValues = Src.find(Name + "_parse_value") != std::string::npos;
  EmittedBuilds Builds(Src, Name);
  CompiledLexer Lex(*Def->Re, P->Canon);

  std::vector<std::string> Inputs = {genWorkload(Name, 31, 20000).Input};
  std::vector<std::string> Bases = extraInputs(Name);
  Bases.push_back(genWorkload(Name, 7, 150).Input);
  for (const std::string &B : Bases)
    for (size_t Cut = 0; Cut <= B.size(); ++Cut)
      Inputs.push_back(B.substr(0, Cut));

  ParseScratch Scratch;
  for (int V = 0; V < NumVariants; ++V) {
    SCOPED_TRACE(VariantNames[V]);
    ASSERT_TRUE(Builds.ok(V)) << "emitted C++ does not build:\n"
                              << Builds.log(V);
    auto Parse = Builds.fn<ParseFn>(V, "_parse");
    auto Events = Builds.fn<EventFn>(V, "_parse_events");
    auto Values = Builds.fn<ValueFn>(V, "_parse_value");
    ASSERT_NE(Parse, nullptr);
    ASSERT_NE(Events, nullptr);
    ASSERT_EQ(Values != nullptr, HasValues);
    size_t Accepted = 0;
    for (const std::string &In : Inputs) {
      SCOPED_TRACE("input '" + In.substr(0, 80) + "'");
      ParseRequest Req;
      Req.Mode = ParseMode::Recognize;
      ParseOutcome Rec;
      const bool Ok = P->M.run(Req, In, Scratch, Rec);
      Accepted += Ok;

      const long Count = Parse(In.data(), In.size());
      ASSERT_EQ(Count >= 0, Ok);
      if (Ok) {
        auto Toks = Lex.lexAll(In);
        ASSERT_TRUE(Toks.ok()) << Toks.error();
        EXPECT_EQ(Count, static_cast<long>(Toks->size()));
      }

      Req.Mode = ParseMode::Events;
      ParseOutcome Lib;
      ASSERT_EQ(P->M.run(Req, In, Scratch, Lib), Ok);
      std::vector<GenEvent> Gen;
      auto Cb = [](void *U, int K, long Id, long B, long E) {
        static_cast<std::vector<GenEvent> *>(U)->push_back({K, Id, B, E});
      };
      const long N = Events(In.data(), In.size(), Cb, &Gen);
      ASSERT_EQ(N >= 0, Ok);
      if (Ok)
        EXPECT_EQ(static_cast<size_t>(N), Gen.size());
      EXPECT_EQ(Events(In.data(), In.size(), nullptr, nullptr), N)
          << "a null callback is legal";
      ASSERT_EQ(Gen.size(), Lib.Events.size());
      for (size_t I = 0; I < Gen.size(); ++I) {
        const ParseEvent &E = Lib.Events[I];
        ASSERT_EQ(Gen[I].Kind, static_cast<int>(E.kind())) << "event " << I;
        ASSERT_EQ(Gen[I].Id, static_cast<long>(E.id())) << "event " << I;
        ASSERT_EQ(Gen[I].Begin, static_cast<long>(E.Begin)) << "event " << I;
        ASSERT_EQ(Gen[I].End, static_cast<long>(E.end())) << "event " << I;
      }

      if (Values) {
        Result<Value> Val = P->parse(In);
        long Out = -999;
        ASSERT_EQ(Values(In.data(), In.size(), &Out) == 0, Val.ok());
        if (Val.ok())
          EXPECT_EQ(Out, static_cast<long>(Val->asInt()));
      }
    }
    // The corpus and the untruncated documents parse; most cuts do not.
    EXPECT_GE(Accepted, 2u);
    EXPECT_LT(Accepted, Inputs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, GeneratedParser,
                         ::testing::Values("json", "sexp", "arith", "pgn",
                                           "ppm", "csv"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

} // namespace
