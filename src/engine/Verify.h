//===- engine/Verify.h - Compiled-artifact verifier -------------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static analysis over compiled artifacts. The hot loops (Compile.cpp,
/// Stream.cpp, Sink.h, the code generator) assume a web of packed
/// invariants — dispatch-tier bounds, 64-bit AccMeta entries, OpPool
/// micro-op arities, sync sets — that nothing checked end-to-end before
/// this pass. The verifier re-proves every one of them from the tables
/// alone (no FusedGrammar needed: per-nonterminal structure is recovered
/// by reachability over the transition tables), so it doubles as the
/// trust boundary for table artifacts that arrive from outside the
/// process (the ROADMAP's mmap-loadable blobs).
///
/// Three consumers:
///   - compileFused runs it as a post-compilation hook in assert builds
///     (and under -DFLAP_VERIFY_TABLES anywhere): a table-construction
///     bug fails the compile with a structured finding instead of
///     corrupting a parse.
///   - the `flap_verify` tool audits every registered grammar and lints
///     it for grammar authors.
///   - tests/VerifyTest.cpp mutation-tests the verifier itself: every
///     single-field corruption of a compiled table must be flagged here
///     before any engine entry point is allowed to touch it.
///
/// engine/README.md ("Verified invariants") enumerates the full catalog.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_VERIFY_H
#define FLAP_ENGINE_VERIFY_H

#include "engine/Compile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace flap {

class CompiledLexer;
struct FlapParser;

/// One verifier finding, anchored to the table field (and state /
/// nonterminal, when applicable) that violates its invariant. Rendered
/// through the same formatter seam as ParseDiagnostic
/// (formatVerifyFinding in engine/Diagnostic.h).
struct VerifyFinding {
  enum class Severity : uint8_t {
    Error,   ///< invariant violated: the hot loops may misbehave
    Warning, ///< suspicious but not provably unsound
    Lint     ///< grammar-quality note for authors; never fails a verify
  };

  Severity Sev = Severity::Error;
  std::string Component; ///< "parser", "lexer" or "grammar"
  std::string Field;     ///< e.g. "Trans16[12]", "AccMeta[7]", "Tiers.TermAcc"
  int32_t State = -1;    ///< machine state the finding anchors to, or -1
  int32_t Nt = -1;       ///< nonterminal the finding anchors to, or -1
  std::string Detail;    ///< what the invariant required vs. what was found

  std::string message() const;
};

struct VerifyOptions {
  /// Also run the grammar-lint tier (requires grammar-level inputs; the
  /// table-only entry points ignore it).
  bool Lints = true;
  /// Stop recording (but keep counting) findings past this many.
  size_t MaxFindings = 256;
};

/// Outcome of a verification pass. ok() is the contract: every invariant
/// the hot loops assume holds, so handing the artifact to an engine entry
/// point cannot hit out-of-bounds table reads or value-stack underflow
/// from malformed tables. Lint/Warning findings never fail it.
struct VerifyReport {
  std::vector<VerifyFinding> Findings;
  /// Individual invariant checks evaluated (recorded so a mutated
  /// verifier that silently checks nothing is itself detectable).
  size_t Checked = 0;
  /// Findings seen but not recorded once MaxFindings was reached.
  size_t Dropped = 0;

  size_t errors() const;
  bool ok() const { return errors() == 0; }
  /// One-line "N checks, E errors, W warnings, L lints" rendering.
  std::string summary() const;
};

/// Audits every CompiledParser invariant: tier-bound monotonicity and
/// per-state tier conformance (re-derived via DispatchTier.h), the three
/// transition tables' ranges and mutual agreement, packed-width limits,
/// AccMeta/AccNtMeta bounds and cross-pool structural agreement, skip-set
/// exactness, abstract interpretation of every ε-program and packed
/// continuation tail (net stack effect, minimum excursion, ValueFree
/// claims re-proved), and sync-set soundness.
VerifyReport verifyCompiledParser(const CompiledParser &M,
                                  const VerifyOptions &Opts = {});

/// Audits the standalone lexer DFA: accept-prefix consistency, tier
/// bounds, transition-table agreement, skip-set exactness.
VerifyReport verifyCompiledLexer(const CompiledLexer &L,
                                 const VerifyOptions &Opts);
inline VerifyReport verifyCompiledLexer(const CompiledLexer &L) {
  return verifyCompiledLexer(L, VerifyOptions{});
}

/// Grammar-lint tier: unreachable nonterminals, pure-token nonterminals
/// that failed dead-token elision (hot tokens still materialized), and
/// first-byte dispatch overlaps between a nonterminal's productions'
/// lexemes. Appends Severity::Lint findings to \p R; never affects ok().
void lintGrammar(const FusedGrammar &F, RegexArena &Arena,
                 const CompiledParser &M, VerifyReport &R);

/// Whole-pipeline audit: the parser tables, and (when Opts.Lints) the
/// grammar lints over the fused grammar the pipeline retains.
VerifyReport verifyFlapParser(const FlapParser &P,
                              const VerifyOptions &Opts = {});

} // namespace flap

#endif // FLAP_ENGINE_VERIFY_H
