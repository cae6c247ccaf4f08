//===- engine/Diagnostic.h - Structured parse diagnostics ------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ONE diagnostic record every engine path shares. The whole-buffer
/// sinks (engine/Sink.h), the streaming parser (Stream.cpp) and the
/// Fig. 9 reference interpreter (FusedInterp.cpp) all render their
/// "parse error at offset N" strings through formatParseErrorAt /
/// formatTrailingAt below — the differential suites compare them
/// verbatim — and the recovery tier surfaces the same
/// information structurally as ParseDiagnostic — absolute offset,
/// lazily materialized line/column, the expected-set text from
/// CompiledParser::NtExpected, and the resynchronization action taken.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_DIAGNOSTIC_H
#define FLAP_ENGINE_DIAGNOSTIC_H

#include "core/Grammar.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace flap {

/// Renders the parse-failure message every path emits: prefers the
/// expected-set form when \p Expected is non-empty, else falls back to
/// naming the failing nonterminal \p Where.
std::string formatParseErrorAt(uint64_t Off, const std::string &Expected,
                               const std::string &Where);

/// Renders the trailing-input message (stack empty, input left over).
std::string formatTrailingAt(uint64_t Off);

/// Renders the entry refusal (CompiledParser::entryRefusal): the value
/// of entry nonterminal \p Where was compiled away by dead-token elision.
std::string formatEntryRefusal(const std::string &Where);

/// Renders the event-length refusal: the lexeme at \p Off, scanned
/// inside nonterminal \p Where, is longer than a Token event's 32-bit
/// length field (ParseEvent::MaxLen) can describe.
std::string formatLexemeLimitAt(uint64_t Off, const std::string &Where);

/// Renders the nullable-record failure: record nonterminal \p Where
/// matched empty input at \p Off, so it cannot delimit a sequence.
std::string formatEmptyRecord(uint64_t Off, const std::string &Where);

/// Token spans (Value::token) and lexeme offsets are 32-bit, so a
/// values request, a stream and the standalone lexer accept at most this
/// many input bytes. Past it they fail with OffsetLimitMessage, which a
/// ParseOutcome carries as one Fatal LimitExceeded diagnostic. Events
/// and recognition keep 64-bit offsets.
constexpr uint64_t MaxSpanBytes = UINT32_MAX;
constexpr const char *OffsetLimitMessage =
    "input exceeds the 32-bit offset space (4 GiB)";

/// Renders one table-verifier finding (engine/Verify.h) through the
/// same formatter seam the parse diagnostics use, so every structured
/// record the engine emits has exactly one string rendering.
/// \p Severity is "error" / "warning" / "lint"; \p State and \p Nt are
/// -1 when the finding is not anchored to a state / nonterminal.
std::string formatVerifyFinding(const char *Severity,
                                const std::string &Component,
                                const std::string &Field, int32_t State,
                                int32_t Nt, const std::string &Detail);

/// One structured parse error — the only error record the engine
/// reports (ParseOutcome::Errors, whichever core or stream fills it).
/// message() is the string a strict wrapper fails with: a strict parse
/// is a recovery parse with an error budget of one, so its error is
/// exactly Errors[0].message().
struct ParseDiagnostic {
  enum class Kind : uint8_t {
    Parse,      ///< no production matched while parsing Nt
    Trailing,   ///< a value completed but input remained
    Entry,      ///< entry Nt refused before parsing (always Fatal, Off 0)
    EmptyRecord, ///< record Nt matched empty input (always Fatal)
    LimitExceeded ///< past a limit, always Fatal: a values input past
                  ///< MaxSpanBytes (refused before parsing; Off 0, no
                  ///< Nt), or an events lexeme past ParseEvent::MaxLen
                  ///< (at the lexeme; Nt is the nonterminal scanned)
  };
  /// What the recovery driver did after recording the error.
  enum class Action : uint8_t {
    Fatal,    ///< stopped: no sync bytes, or the error limit was hit
    Resync,   ///< skipped to ResumeOff (just past a sync byte) and
              ///< re-entered the machine at the recovery nonterminal
    SkipToEnd ///< no viable sync point before end of input; the rest
              ///< of the input was discarded (ResumeOff == input size)
  };

  Kind K = Kind::Parse;
  Action Act = Action::Fatal;
  NtId Nt = NoNt;         ///< failing nonterminal (Parse and Entry)
  uint64_t Off = 0;       ///< absolute stream offset of the failure
  uint64_t ResumeOff = 0; ///< absolute offset parsing resumed at
  uint32_t Line = 1;      ///< 1-based line of Off
  uint32_t Col = 1;       ///< 1-based column of Off (byte-oriented)
  std::string Expected;   ///< expected-set text (NtExpected), may be ""
  std::string Where;      ///< failing nonterminal's name (NtNames)

  /// The exact string the corresponding non-recovery path fails with.
  std::string message() const;

  bool operator==(const ParseDiagnostic &O) const {
    return K == O.K && Act == O.Act && Nt == O.Nt && Off == O.Off &&
           ResumeOff == O.ResumeOff && Line == O.Line && Col == O.Col &&
           Expected == O.Expected && Where == O.Where;
  }
  bool operator!=(const ParseDiagnostic &O) const { return !(*this == O); }
};

/// The number of errors the recovering wrappers and the serving options
/// survive by default.
constexpr size_t DefaultMaxErrors = 100;

/// The ONE error-budget rule every recovering driver applies — the
/// whole-buffer and record loops (Compile.cpp), the shard stitcher and
/// the streaming parser. A budget of one is a strict parse: the first
/// diagnostic is Fatal. MaxErrors 0 is treated as 1 here and nowhere
/// else.
class ErrorBudget {
public:
  explicit ErrorBudget(size_t MaxErrors) : Max(MaxErrors ? MaxErrors : 1) {}

  /// Charges diagnostic \p D. Returns true when \p D ends the parse —
  /// the budget is spent (which sets \p Truncated), \p CanResync is
  /// false (no sync bytes, or a grammar-shape error), or \p D is a
  /// LimitExceeded (which sets \p Truncated too: no resync gets past a
  /// limit) — and marks it Fatal at its own offset; false when the
  /// caller may resynchronize.
  bool charge(ParseDiagnostic &D, bool CanResync, bool &Truncated) {
    const bool Spent = ++Used >= Max;
    const bool Limit = D.K == ParseDiagnostic::Kind::LimitExceeded;
    if (!Spent && CanResync && !Limit)
      return false;
    Truncated |= Spent || Limit;
    D.Act = ParseDiagnostic::Action::Fatal;
    D.ResumeOff = D.Off;
    return true;
  }
  size_t max() const { return Max; }
  void reset() { Used = 0; }

private:
  size_t Max;
  size_t Used = 0;
};

/// Incremental line/column accounting. Diagnostics are cold, so neither
/// driver counts newlines on the hot path: the tracker advances over
/// each input byte at most once — through the compacted-away prefix in
/// the streaming parser, and lazily up to the failure offset when a
/// diagnostic materializes — giving identical line/column numbers on
/// the whole-buffer, batch and streaming paths for O(n) total work.
struct LineTracker {
  uint64_t ScannedTo = 0; ///< absolute offset scanned so far
  uint64_t LineStart = 0; ///< absolute offset of the current line start
  uint32_t Line = 1;      ///< 1-based line number at ScannedTo

  /// Absorbs the \p N bytes at absolute offset ScannedTo. Every stream
  /// passes each compacted chunk through here, so the count is blocked:
  /// a one-byte accumulator per Block bytes cannot wrap and lets the
  /// compiler vectorize the inner loop (portable C++, no intrinsics);
  /// memrchr then finds the line start.
  void advance(const char *S, size_t N) {
    constexpr size_t Block = 255;
    uint64_t Lines = 0;
    for (size_t I = 0; I < N; I += Block) {
      const size_t End = I + Block < N ? I + Block : N;
      uint8_t C = 0;
      for (size_t K = I; K < End; ++K)
        C += S[K] == '\n';
      Lines += C;
    }
    if (Lines) {
      Line += static_cast<uint32_t>(Lines);
      const char *NL = static_cast<const char *>(memrchr(S, '\n', N));
      LineStart = ScannedTo + static_cast<uint64_t>(NL - S) + 1;
    }
    ScannedTo += N;
  }

  /// Column of \p Off, which must satisfy LineStart <= Off == ScannedTo.
  uint32_t colAt(uint64_t Off) const {
    return static_cast<uint32_t>(Off - LineStart) + 1;
  }

  /// Advances to \p D's offset over \p Input, whose first byte is
  /// absolute offset \p Base, and stamps D's line and column.
  void locate(const char *Input, uint64_t Base, ParseDiagnostic &D) {
    if (D.Off > ScannedTo)
      advance(Input + (ScannedTo - Base),
              static_cast<size_t>(D.Off - ScannedTo));
    D.Line = Line;
    D.Col = colAt(D.Off);
  }
};

} // namespace flap

#endif // FLAP_ENGINE_DIAGNOSTIC_H
