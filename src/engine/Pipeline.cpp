//===- engine/Pipeline.cpp - The flap pipeline --------------------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "engine/Pipeline.h"

#include "core/Normalize.h"
#include "core/Validate.h"
#include "support/Timer.h"

using namespace flap;

Result<FlapParser> flap::compileFlap(std::shared_ptr<GrammarDef> Def,
                                     NormalizeOptions NOpts) {
  FlapParser Out;
  Out.Def = Def;
  Lang &L = *Def->L;

  // Stage 1: type checking (Fig. 2).
  Stopwatch W;
  Result<TypeInfo> Types = L.check(Def->Root);
  if (!Types)
    return Err("typecheck(" + Def->Name + "): " + Types.error());
  Out.Types = Types.take();
  Out.Times.TypeCheckMs = W.millis();

  // Lexer canonicalization (§4) — charged to the fuse stage below in
  // Table 2 terms, but run here so normalization errors surface first.
  Result<CanonicalLexer> Canon = Def->Lexer->canonicalize();
  if (!Canon)
    return Err("lexer(" + Def->Name + "): " + Canon.error());
  Out.Canon = Canon.take();

  // Stage 2: normalization to DGNF (§3).
  W.reset();
  Result<Grammar> G = normalize(L.Arena, Def->Root.Id, NOpts);
  if (!G)
    return Err("normalize(" + Def->Name + "): " + G.error());
  Out.G = G.take();
  Out.Times.NormalizeMs = W.millis();

  if (Status S = validateDgnf(Out.G, *Def->Toks); !S.ok())
    return Err("dgnf(" + Def->Name + "): " + S.error());

  // Stage 3: lexer-parser fusion (§4).
  W.reset();
  Result<FusedGrammar> F = fuse(*Def->Re, Out.Canon, Out.G, *Def->Toks);
  if (!F)
    return Err("fuse(" + Def->Name + "): " + F.error());
  Out.F = F.take();
  Out.Times.FuseMs = W.millis();

  // Stage 4: staging (§5.4) — specialize to the flat machine.
  W.reset();
  Result<CompiledParser> M =
      compileFused(*Def->Re, Out.F, L.Actions, Def->Toks.get());
  if (!M)
    return Err("stage(" + Def->Name + "): " + M.error());
  Out.M = M.take();
  Out.Times.CodegenMs = W.millis();

  Out.Sizes.LexRules = Def->Lexer->numRules();
  Out.Sizes.CfeNodes = L.Arena.countReachable(Def->Root.Id);
  Out.Sizes.NumNts = Out.G.numNts();
  Out.Sizes.NumProds = Out.G.numProductions();
  Out.Sizes.FusedProds = Out.F.numProductions();
  Out.Sizes.OutputFunctions = static_cast<size_t>(Out.M.numStates());
  return Out;
}

Result<FlapParser>
flap::compileFlapMulti(std::shared_ptr<GrammarDef> Def,
                       const std::vector<std::pair<std::string, Px>> &Roots,
                       NormalizeOptions NOpts) {
  FlapParser Out;
  Out.Def = Def;
  Lang &L = *Def->L;

  Stopwatch W;
  std::vector<CfeId> RootIds;
  for (const auto &[Name, Root] : Roots) {
    Result<TypeInfo> Types = L.check(Root);
    if (!Types)
      return Err("typecheck(" + Def->Name + "/" + Name +
                 "): " + Types.error());
    Out.Types = Types.take(); // the last root's types; each was checked
    RootIds.push_back(Root.Id);
  }
  Out.Times.TypeCheckMs = W.millis();

  Result<CanonicalLexer> Canon = Def->Lexer->canonicalize();
  if (!Canon)
    return Err("lexer(" + Def->Name + "): " + Canon.error());
  Out.Canon = Canon.take();

  W.reset();
  std::vector<NtId> Starts;
  Result<Grammar> G = normalizeMulti(L.Arena, RootIds, Starts, NOpts);
  if (!G)
    return Err("normalize(" + Def->Name + "): " + G.error());
  Out.G = G.take();
  Out.Times.NormalizeMs = W.millis();

  if (Status S = validateDgnf(Out.G, *Def->Toks); !S.ok())
    return Err("dgnf(" + Def->Name + "): " + S.error());

  W.reset();
  Result<FusedGrammar> F = fuse(*Def->Re, Out.Canon, Out.G, *Def->Toks);
  if (!F)
    return Err("fuse(" + Def->Name + "): " + F.error());
  Out.F = F.take();
  Out.Times.FuseMs = W.millis();

  // Every root is a declared entry: dead-token elision keeps its value.
  W.reset();
  Result<CompiledParser> M =
      compileFused(*Def->Re, Out.F, L.Actions, Def->Toks.get(), Starts);
  if (!M)
    return Err("stage(" + Def->Name + "): " + M.error());
  Out.M = M.take();
  Out.Times.CodegenMs = W.millis();

  for (size_t I = 0; I < Roots.size(); ++I)
    Out.Entries.emplace(Roots[I].first, Starts[I]);
  Out.Sizes.LexRules = Def->Lexer->numRules();
  Out.Sizes.NumNts = Out.G.numNts();
  Out.Sizes.NumProds = Out.G.numProductions();
  Out.Sizes.FusedProds = Out.F.numProductions();
  Out.Sizes.OutputFunctions = static_cast<size_t>(Out.M.numStates());
  return Out;
}

Result<FlapParser> flap::compileFlapRecords(std::shared_ptr<GrammarDef> Def,
                                            NormalizeOptions NOpts) {
  if (!Def->HasRecord)
    return Err("grammar '" + Def->Name +
               "' declares no record decomposition (GrammarDef::Record)");
  return compileFlapMulti(
      Def, {{"main", Def->Root}, {"record", Def->Record}}, NOpts);
}

NtId flap::recordEntry(const FlapParser &P) {
  auto It = P.Entries.find("record");
  return It == P.Entries.end() ? NoNt : It->second;
}
