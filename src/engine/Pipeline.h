//===- engine/Pipeline.h - The flap pipeline --------------------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end flap pipeline (paper Fig. 1):
///
///   parser (CFE) ──typed──► normalized (§3) ──┐
///   lexer ──canonicalized/specialized (§2.7)──┤──► fused (§4) ──► staged (§5.4)
///
/// compileFlap() runs all stages with per-stage timing (Table 2) and
/// records the intermediate sizes (Table 1). The resulting FlapParser
/// bundles every artifact so tests can inspect intermediate forms and
/// benches can drive any engine over the same grammar.
///
/// FlapParser keeps only the strict convenience calls the examples use
/// (parse, parseEntry) and stream(); every other request — events,
/// recognition, batches, record runs, error budgets — goes through the
/// staged machine's request cores, FlapParser::M.run / runBatch /
/// runRecords (engine/Compile.h).
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_PIPELINE_H
#define FLAP_ENGINE_PIPELINE_H

#include "cfe/Combinators.h"
#include "core/Fuse.h"
#include "core/Grammar.h"
#include "core/Normalize.h"
#include "engine/Compile.h"
#include "engine/Stream.h"
#include "lexer/LexerSpec.h"
#include "support/Result.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace flap {

/// A complete grammar definition: lexer spec + typed CFE, sharing one
/// token set, regex arena and action table. shared_ptrs keep everything
/// alive for the lifetime of compiled parsers.
struct GrammarDef {
  std::string Name;
  std::shared_ptr<TokenSet> Toks = std::make_shared<TokenSet>();
  std::shared_ptr<RegexArena> Re = std::make_shared<RegexArena>();
  std::shared_ptr<Lang> L;
  std::shared_ptr<LexerSpec> Lexer;
  Px Root;
  /// The grammar's *record* unit — one element of a record-delimited
  /// corpus (a single json document, one csv row, one pgn game), i.e.
  /// what Root folds a sequence of. Grammars whose Root already parses
  /// one record (sexp, ppm) set Record = Root. Consumed by
  /// compileFlapRecords() for the record core
  /// (CompiledParser::runRecords) and the shard layer (engine/
  /// Shard.h). Left unset (HasRecord == false) when the grammar has no
  /// record decomposition.
  Px Record;
  bool HasRecord = false;
  /// Grammars whose actions accumulate into a per-parse user context
  /// (e.g. ppm's pixel statistics) provide a fresh-context factory;
  /// harnesses pass the pointer as ParseContext::User.
  std::function<std::shared_ptr<void>()> NewCtx;

  GrammarDef(std::string Name) : Name(std::move(Name)) {
    L = std::make_shared<Lang>(*Toks);
    Lexer = std::make_shared<LexerSpec>(*Re, *Toks);
  }
};

/// Per-stage wall-clock times — the breakdown behind Table 2.
struct PipelineTimings {
  double TypeCheckMs = 0;
  double NormalizeMs = 0;
  double FuseMs = 0;
  double CodegenMs = 0; ///< staging: machine specialization

  double totalMs() const {
    return TypeCheckMs + NormalizeMs + FuseMs + CodegenMs;
  }
};

/// The size columns of Table 1.
struct SizeStats {
  size_t LexRules = 0;        ///< input lexer rules (Return + Skip)
  size_t CfeNodes = 0;        ///< input CFE nodes
  size_t NumNts = 0;          ///< normalized nonterminals
  size_t NumProds = 0;        ///< normalized productions
  size_t FusedProds = 0;      ///< fused productions (F1+F2+F3)
  size_t OutputFunctions = 0; ///< generated machine states
};

/// Everything the pipeline produces for one grammar.
struct FlapParser {
  /// Named entry points (multi-entry pipelines); maps to machine
  /// nonterminals usable as ParseRequest::Entry.
  std::map<std::string, NtId> Entries;

  std::shared_ptr<GrammarDef> Def; ///< keeps arenas/actions alive
  TypeInfo Types;
  CanonicalLexer Canon;
  Grammar G;       ///< normalized DGNF grammar
  FusedGrammar F;  ///< after lexer-parser fusion
  CompiledParser M; ///< after staging
  PipelineTimings Times;
  SizeStats Sizes;

  /// Parses with the staged fused machine (the flap of Fig. 11): a
  /// strict values request from Start with a fresh scratch. Everything
  /// else — events, recognition, batches, record runs, error budgets —
  /// is a ParseRequest on M (engine/README.md "Entry points").
  Result<Value> parse(std::string_view Input, void *User = nullptr) const {
    ParseScratch Scratch;
    return M.parse(Input, Scratch, User);
  }

  /// Parses from a named entry point (compileFlapMulti).
  Result<Value> parseEntry(const std::string &Name,
                           std::string_view Input) const {
    auto It = Entries.find(Name);
    if (It == Entries.end())
      return Err("unknown entry point '" + Name + "'");
    return M.parseFrom(It->second, Input);
  }

  /// A push-style streaming parse over the same machine (engine/
  /// Stream.h): feed chunks, finish, take the value. The FlapParser must
  /// outlive the returned StreamParser.
  StreamParser stream(void *User = nullptr) const {
    StreamOptions O;
    O.User = User;
    return StreamParser(M, O);
  }
  StreamParser stream(const StreamOptions &O) const {
    return StreamParser(M, O);
  }
};

/// Runs typecheck → canonicalize → normalize → fuse → stage.
Result<FlapParser> compileFlap(std::shared_ptr<GrammarDef> Def,
                               NormalizeOptions NOpts = {});

/// Multi-entry pipeline (paper §8): compiles several named roots into
/// one shared machine. Def->Root is ignored; each root is type-checked
/// independently and all are normalized into a single grammar with
/// shared subexpressions. Every root is a declared entry: dead-token
/// elision keeps its value, so every mode accepts it (engine/README.md
/// "Entry points").
Result<FlapParser>
compileFlapMulti(std::shared_ptr<GrammarDef> Def,
                 const std::vector<std::pair<std::string, Px>> &Roots,
                 NormalizeOptions NOpts = {});

/// compileFlapMulti over {"main": Def->Root, "record": Def->Record} —
/// one machine whose Start is the whole-corpus grammar and whose
/// Entries["record"] is the record unit the shard layer parallelizes
/// over. Fails when the grammar declares no record decomposition.
Result<FlapParser> compileFlapRecords(std::shared_ptr<GrammarDef> Def,
                                      NormalizeOptions NOpts = {});

/// Entries["record"] of a compileFlapRecords() parser (convenience for
/// the shard/serve harnesses); NoNt when absent.
NtId recordEntry(const FlapParser &P);

} // namespace flap

#endif // FLAP_ENGINE_PIPELINE_H
