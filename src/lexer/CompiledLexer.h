//===- lexer/CompiledLexer.h - DFA lexer ------------------------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lexer compiled to a dense DFA (Owens et al. 2009 construction:
/// states are vectors of rule derivatives, transitions computed per
/// derivative class of each state). This is the token producer used by
/// every *unfused* engine in the evaluation — the thing flap's fusion
/// makes unnecessary. The DFA runs on the staged machine's scan tables
/// and scan kernel (engine/DispatchTier.h, engine/ScanKernel.h): the
/// same build, audit and artifact format, with no self-skip tiers.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_LEXER_COMPILEDLEXER_H
#define FLAP_LEXER_COMPILEDLEXER_H

#include "engine/DispatchTier.h"
#include "engine/ScanKernel.h"
#include "engine/TableStore.h"
#include "lexer/LexerSpec.h"

#include <string>
#include <string_view>
#include <vector>

namespace flap {

class CompiledLexer;
struct VerifyOptions;
struct VerifyReport;
/// Table audit over the private DFA tables (engine/Verify.h).
VerifyReport verifyCompiledLexer(const CompiledLexer &L,
                                 const VerifyOptions &Opts);

/// Outcome of a pull on the token stream.
enum class LexStatus {
  Token, ///< a lexeme was produced
  Eof,   ///< clean end of input
  Error  ///< no rule matches at the current position
};

/// A lexer DFA with longest-match semantics.
class CompiledLexer {
public:
  /// Compiles \p Lexer. The canonical rules are disjoint, so every DFA
  /// state accepts for at most one rule. A rule set whose DFA exceeds
  /// CompiledParser::MaxPackedStates states is refused: status() holds
  /// the error, lexAll() returns it, and the lexer matches nothing.
  CompiledLexer(RegexArena &Arena, const CanonicalLexer &Lexer);

  /// The outcome of the build (see the constructor).
  const Status &status() const { return Built; }

  /// Pulls the next non-skip lexeme starting at \p Pos, advancing it.
  /// Lexeme offsets are uint32: an input longer than MaxSpanBytes
  /// (engine/Diagnostic.h) is refused with Error, never read as empty.
  LexStatus next(std::string_view Input, uint32_t &Pos, Lexeme &Out) const;

  /// Pulls the next lexeme *including* skip matches (Tok == NoToken).
  /// Used by differential tests against the Fig. 7 interpreter.
  LexStatus nextRaw(std::string_view Input, uint32_t &Pos,
                    Lexeme &Out) const;

  /// Lexes everything; convenience wrapper over next().
  Result<std::vector<Lexeme>> lexAll(std::string_view Input) const;

  int numStates() const { return static_cast<int>(Accept.size()); }
  int numClasses() const { return Scan.numClasses(); }

private:
  friend class StreamLexer;
  friend VerifyReport flap::verifyCompiledLexer(const CompiledLexer &L,
                                                const VerifyOptions &Opts);
  friend class VerifyTestPeer; ///< mutation suite (tests/VerifyTest.cpp)
  /// Zero-copy artifact serialization/loading (engine/Artifact.cpp):
  /// writes the tables out raw and borrows them back from a mapping.
  friend struct ArtifactAccess;
  /// Only ArtifactAccess constructs an empty lexer to fill from a blob.
  CompiledLexer() = default;
  static constexpr int32_t Dead = -1;

  /// Accepting states are renumbered into the id prefix
  /// [0, Scan.Tiers.Accept), so the scan tests acceptance with a
  /// compare, not an Accept load. Within that prefix the ids carry the
  /// staged machine's dispatch-tier encoding (engine/DispatchTier.h)
  /// minus the self-skip tiers the lexer DFA does not have: terminal
  /// accepting states (punctuation, decided by the first-byte dispatch
  /// load alone), then pure accepting runs (identifiers, whitespace:
  /// the bulk-classified run is the rest of the lexeme), then other
  /// accepting states. The Skip sets hand lexeme interiors (identifiers,
  /// numbers, whitespace, string bodies) to the bulk run-skip classifier.
  ScanTables Scan;
  /// Accepting rule index per state (index into Toks), or -1.
  Table<int32_t> Accept;
  /// Token returned by rule I; NoToken for the skip rule.
  Table<TokenId> Toks;
  int32_t Start = 0;
  Status Built;
};

/// Push-style streaming lexer over a CompiledLexer (the unfused
/// engines' analogue of engine/Stream.h): input arrives in arbitrary
/// chunks, the longest-match scan suspends mid-lexeme — its registers
/// are a DFA state, the lexeme base and the best match — and only the
/// in-progress lexeme's bytes are carried across chunk boundaries.
/// Emitted lexemes carry absolute stream offsets, identical to
/// lexAll() over the concatenated chunks.
class StreamLexer {
public:
  /// \p L must outlive the lexer.
  explicit StreamLexer(const CompiledLexer &L) : L(&L) {}

  /// Consumes \p Chunk, appending every *completed* non-skip lexeme to
  /// \p Out (a lexeme completes once the longest match is decided —
  /// which may require the first bytes of a later chunk). Fails when no
  /// rule matches, with the same diagnostic lexAll() gives.
  Status feed(std::string_view Chunk, std::vector<Lexeme> &Out);

  /// Ends the stream: decides the suspended match (end-of-input is now
  /// a hard lexeme boundary) and emits what remains.
  Status finish(std::vector<Lexeme> &Out);

  /// Absolute stream offset of the current lexeme's base.
  uint64_t offset() const { return WinBase + Sc.Base; }
  /// Bytes carried across chunk boundaries.
  size_t carryBytes() const { return Buf.size(); }

  void reset();

private:
  template <typename Tab, bool Final> Status pumpT(std::vector<Lexeme> &Out);
  template <bool Final> Status pump(std::vector<Lexeme> &Out);

  const CompiledLexer *L;
  std::string Buf;      ///< window: in-progress lexeme bytes + chunk
  uint64_t WinBase = 0; ///< absolute stream offset of Buf[0]
  /// The scan registers; Sc.Base is the window-relative lexeme base.
  scankernel::ScanState Sc{};
  bool MidScan = false; ///< a scan is suspended in Sc
  bool Finished = false;
};

} // namespace flap

#endif // FLAP_LEXER_COMPILEDLEXER_H
