//===- engine/Stream.h - Push-style streaming parser ------------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A push-style streaming front end over the staged fused machine
/// (à la libfsp's fsp_parse_chunk): input arrives in arbitrary chunks
/// via feed(), the parse suspends mid-lexeme — and mid-run inside the
/// SIMD skip kernels — whenever a chunk ends, and finish() closes the
/// stream. Servers parse straight off sockets without buffering whole
/// documents.
///
/// What makes this a refactor rather than a rewrite (and the reason the
/// paper's design is uniquely suited to it): the fused machine keeps
/// *all* lexing state in a handful of registers — no token buffer, no
/// memo table. A suspension is therefore just a saved ScanState
/// (ScanKernel.h) plus the residual loop's symbol stack, which already
/// lives in ParseScratch form.
///
/// Memory model — the carry buffer:
///
///   - Between chunks the parser retains only the *unconsumed window*:
///     bytes from the in-progress lexeme's base onward, plus any earlier
///     bytes still reachable from semantic values (see below). For the
///     benchmark grammars this is tens of bytes, independent of stream
///     length.
///   - Semantic actions may read the text of token spans reachable from
///     their arguments (ParseContext::text / at). The parser tracks a
///     conservative *retain watermark* per value-stack entry: a token
///     value retains its span; an action result retains the minimum of
///     its arguments' watermarks unless the result is a scalar
///     (unit/bool/int/real/string), which provably holds no input
///     references. The carry is therefore bounded by the span of the
///     oldest *live* (not yet reduced) value — for a stream of
///     documents (ndjson, csv rows, pgn games) that is one document,
///     independent of stream length. A single bracket structure
///     spanning the whole stream (one giant s-expression) retains back
///     to its opening token: its delimiter token sits on the value
///     stack until the matching close, and the parser cannot know the
///     closing action won't read it.
///   - Actions must not stash absolute offsets in user context and
///     dereference them in a *later* action; spans are only addressable
///     while a value referencing them is live on the value stack.
///   - *Event mode* (StreamOptions::Events) sidesteps value retention
///     entirely: token text is copied at match time into the undrained
///     EventBatch's arena, so the carry is the in-progress lexeme —
///     O(longest lexeme) even for the document-spanning bracket
///     structures above.
///
/// Offsets: all reported offsets — token spans in values, error
/// messages, offset() — are absolute stream offsets, identical to a
/// whole-buffer parse of the concatenated chunks (the chunked
/// differential fuzzer asserts byte-identical values and error strings
/// at every split point). Token spans are uint32, so one stream is
/// limited to 4 GiB, like a whole-buffer parse.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_STREAM_H
#define FLAP_ENGINE_STREAM_H

#include "engine/Compile.h"
#include "engine/Diagnostic.h"
#include "engine/ScanKernel.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flap {

/// Outcome of a feed()/finish() call.
enum class StreamStatus : uint8_t {
  NeedData, ///< parse suspended cleanly; feed more input or finish()
  Done,     ///< finish() completed; take() yields the value
  Error     ///< parse failed; take() yields the diagnostic
};

struct StreamOptions {
  /// Entry nonterminal; NoNt uses the machine's start symbol (the
  /// machine is one table set shared by every entry point, §8). Value
  /// and event streams refuse an undeclared ValueFree entry up front
  /// (CompiledParser::entryRefusal); Recognize accepts every entry.
  NtId Start = NoNt;
  /// Opaque pointer exposed to actions as ParseContext::User.
  void *User = nullptr;
  /// Recognition only: no values, no actions (the streaming analogue of
  /// CompiledParser::recognize). Takes precedence over Events.
  bool Recognize = false;
  /// SAX event mode: instead of building values, the parser appends
  /// ParseEvents to an EventBatch (drained with takeEvents()), copying
  /// each token's text *eagerly* at match time into the batch's own
  /// text arena. Because an event never references the window after
  /// its hook returns, the parser retains no input beyond the
  /// in-progress lexeme — the carry stays O(longest lexeme) even on a
  /// document-spanning bracket structure that value mode would
  /// legitimately retain back to its opening delimiter. take() yields
  /// unit on success.
  bool Events = false;
  /// Sync-token error recovery — the streaming analogue of a
  /// CompiledParser::run request with a budget, with byte-identical
  /// diagnostics (the recovery differential suite compares the
  /// ParseDiagnostic lists at every chunk split). On a parse failure the parser skips to the
  /// next viable sync point (engine/README.md "The recovery contract"),
  /// re-enters the machine at the entry nonterminal, and keeps going:
  /// feed() keeps returning NeedData, completed segment values
  /// accumulate for takeValues(), and the structured error list
  /// accumulates for errors()/takeErrors(). The resynchronization scan
  /// itself suspends across chunk boundaries — a diagnostic is never
  /// exposed until its recovery action (Resync/SkipToEnd/Fatal) is
  /// known. take() yields unit on success. Composes with Events and
  /// Recognize.
  bool Recover = false;
  /// Recovery only: stop after this many recorded errors (the last one
  /// is marked Action::Fatal and truncated() turns true; the stream
  /// then errors like a non-recovery failure). 0 behaves as 1
  /// (ErrorBudget).
  size_t MaxErrors = DefaultMaxErrors;
};

/// A run of streamed events together with the bytes their token text
/// views: the text arena travels with the events, so a drained batch is
/// self-contained — its views stay valid after further feeds, reset()
/// and destruction of the parser, for as long as the batch lives
/// (moving it keeps them valid too). Iterates like a vector of events.
class EventBatch {
public:
  using const_iterator = std::vector<ParseEvent>::const_iterator;

  size_t size() const { return Events.size(); }
  const ParseEvent &operator[](size_t I) const { return Events[I]; }
  const_iterator begin() const { return Events.begin(); }
  const_iterator end() const { return Events.end(); }

private:
  friend class StreamParser;
  std::vector<ParseEvent> Events;
  TextArena Text;
};

/// A resumable parse over one input stream. Not thread-safe; one
/// instance per stream (reset() recycles buffers for the next stream).
class StreamParser {
public:
  /// \p M must outlive the parser.
  explicit StreamParser(const CompiledParser &M, StreamOptions Opts = {});

  /// Consumes \p Chunk. NeedData means the parse is suspended waiting
  /// for more input; Error means it failed (take() has the diagnostic —
  /// errors surface as soon as they are decidable, not at finish()).
  StreamStatus feed(std::string_view Chunk);

  /// Ends the stream: runs the suspended scan to end-of-input, absorbs
  /// trailing skip input, and completes the parse.
  StreamStatus finish();

  /// After finish(): the semantic value (or unit in Recognize/Events
  /// mode), or the parse error. Calling take() before finish() returns
  /// an error. After a parse error, take() is repeatable: every call
  /// returns the same diagnostic (the post-error contract — see
  /// reset()).
  Result<Value> take();

  /// Event mode: moves out the events accumulated since the last call,
  /// with the arena their token text lives in — the returned batch owns
  /// its text. Drain between feeds to keep consumer memory bounded —
  /// the parser itself never retains input beyond the in-progress
  /// lexeme.
  EventBatch takeEvents() { return std::exchange(EvLog, EventBatch()); }
  /// The undrained events (event mode); their text lives until they are
  /// drained with takeEvents() (then as long as that batch) or dropped
  /// by reset().
  const std::vector<ParseEvent> &events() const { return EvLog.Events; }

  /// Recovery mode: moves out the values of the segments completed
  /// since the last call (one Value per recovered record). Drain
  /// between feeds to keep consumer memory bounded.
  std::vector<Value> takeValues() {
    std::vector<Value> Out;
    Out.swap(SegVals);
    return Out;
  }
  /// Recovery mode: the undrained structured diagnostics. A failure
  /// whose resynchronization is still in flight is *not* listed — every
  /// exposed diagnostic has its recovery action resolved.
  const std::vector<ParseDiagnostic> &errors() const { return Errs; }
  /// Recovery mode: moves out the diagnostics accumulated since the
  /// last call. Draining does not reset the MaxErrors accounting.
  std::vector<ParseDiagnostic> takeErrors() {
    std::vector<ParseDiagnostic> Out;
    Out.swap(Errs);
    return Out;
  }
  /// Recovery mode: true once MaxErrors stopped the stream early.
  bool truncated() const { return Truncated; }

  StreamStatus status() const {
    return Ph == Phase::Done   ? StreamStatus::Done
           : Ph == Phase::Fail ? StreamStatus::Error
                               : StreamStatus::NeedData;
  }

  /// Absolute stream offset of the next unconsumed byte (the in-progress
  /// lexeme's base while suspended mid-lexeme; the resynchronization
  /// scan cursor while recovering; the error position after a failed
  /// parse).
  uint64_t offset() const {
    if (Ph == Phase::Fail)
      return ErrOff;
    if (Ph == Phase::Resync)
      return WinBase + RePos;
    return WinBase + (MidScan ? Sc.Base : Pos);
  }

  /// Total bytes fed so far.
  uint64_t streamedBytes() const { return WinBase + Buf.size(); }

  /// Bytes currently carried across chunk boundaries.
  size_t carryBytes() const { return Buf.size(); }

  /// Largest carry ever held — the streaming memory high-water mark.
  size_t carryHighWater() const { return CarryHW; }

  /// Restarts the parser for a new stream — the serving primitive: one
  /// StreamParser handles many connections back to back. Reuses every
  /// allocated buffer and keeps the warmed pool arena and the table
  /// references (the streaming analogue of a reused ParseScratch), from
  /// any terminal or mid-stream state.
  ///
  /// Post-error contract (pinned by tests/StreamDiffTest.cpp): a parse
  /// error releases the carry, the live values, their retain watermarks
  /// and any unconsumed result immediately — an errored parser holds
  /// only the diagnostic, its position, and (in event mode) the
  /// undrained events, which are consumer output and stay retrievable
  /// via takeEvents(). take() returns the error, repeatably;
  /// feed()/finish() keep returning Error; offset() reports the error
  /// position; and reset() fully recovers the parser for the next
  /// stream.
  void reset();

  /// The per-stream value arena (kept warm across reset()); escaped
  /// values pin its pages. Exposed so serving code and tests can observe
  /// arena reuse.
  const ValuePoolRef &pool() const { return Pool; }

private:
  /// The test seam of tests/StreamDiffTest.cpp (defined there): reads
  /// buffer capacities to pin reset()'s reuse contract.
  friend struct StreamParserTestPeer;

  /// Resync: recovery mode only — a failure was recorded and the parser
  /// is scanning for the next viable sync point (possibly across many
  /// chunks); status() reports NeedData.
  enum class Phase : uint8_t { Run, Trail, Resync, Done, Fail };

  /// The streaming sink policies (Stream.cpp): value building with
  /// retain tracking, SAX events, recognition. Same contract as the
  /// whole-buffer sinks in engine/Sink.h.
  struct VSink;
  struct ESink;
  struct RSink;

  template <typename Tab, typename SinkT, bool Final> StreamStatus pumpT();
  template <bool Final> StreamStatus pump();
  /// The outer drive loop: alternates pump() with resynchronization
  /// until the window is exhausted or the stream reaches a terminal
  /// phase. Recovery restarts (fail → resync → re-enter) resolve within
  /// one call when the sync point is already in the window.
  template <bool Final> StreamStatus drivePump();
  /// Recovery: records the failure as the pending diagnostic, closes
  /// the current segment (a Trailing failure completed its value; a
  /// parse failure drops the partial), and either enters Phase::Resync
  /// or — at the error limit, or for a grammar with no sync tokens —
  /// seals the diagnostic as Fatal and fails the stream.
  StreamStatus recoverAt(NtId N, bool Trailing, uint64_t Off);
  /// Advances the resynchronization scan over the window. Returns false
  /// when suspended waiting for more input (never when \p Final);
  /// returns true once resolved — the pending diagnostic is pushed with
  /// its action (Resync: parsing re-enters at the sync point;
  /// SkipToEnd: the stream completes) and Ph has left Resync.
  bool stepResync(bool Final);
  /// Runs one marker occurrence (a PackedPool op; an MSlow op carries
  /// its ActionId in Imm) through the shared pooled dispatch, with
  /// retain watermark bookkeeping when TrackRetain is set.
  inline void applyOp(const MicroOp &Op, ParseContext &Ctx);
  /// Same for a raw action id (ε-chain entries are not pool indexed).
  inline void applyActionId(ActionId A, ParseContext &Ctx);
  /// Records that the value at value-stack index \p Idx retains input
  /// from absolute offset \p W on. Only called with a real watermark.
  inline void pushRetain(size_t Idx, uint64_t W) {
    uint64_t Min = Retain.empty() ? W : std::min(W, Retain.back().RunMin);
    Retain.push_back({Idx, W, Min});
  }
  void compact();
  StreamStatus failParse(NtId N);
  StreamStatus failTrailing();
  /// Enters Phase::Fail: records the error offset and releases the
  /// carry, values, retain watermarks, suspended scan and symbol stack
  /// (the post-error contract; see reset()).
  void releaseAfterError(uint64_t ErrOffset);
  StreamStatus complete();

  const CompiledParser *M;
  NtId StartNt;
  void *User;
  bool Recognize;
  bool EventMode;
  bool RecoverMode;
  ErrorBudget Budget; ///< drain-immune: counts every diagnostic
  /// False when no registered action reads lexeme text
  /// (ActionTable::readsInput()): retain watermarks then need no
  /// tracking at all — the carry is just the in-progress lexeme — and
  /// the ε-chain fast path applies. ~5% of parse throughput on the
  /// grammars this covers (ROADMAP follow-up (a)).
  bool TrackRetain;

  Phase Ph = Phase::Run;
  std::string Buf;       ///< the window: carry + current chunk
  uint64_t WinBase = 0;  ///< absolute stream offset of Buf[0]
  size_t Pos = 0;        ///< window-relative parse position
  bool MidScan = false;  ///< a scan is suspended in Sc
  scankernel::ScanState Sc{};
  std::vector<uint32_t> Stack; ///< packed symbols (CompiledParser::packNt)
  ValueStack Values;
  size_t NumVals = 0; ///< Values.size(), tracked to keep size() (a
                      ///< division on vector<Value>) off the hot path
  /// Sparse retain watermarks: one entry per value-stack slot that may
  /// still reference input (a token value, or a non-scalar action result
  /// built from one) — scalar results carry no entry at all, so the
  /// count-grammar hot path pays one compare per action, not a vector
  /// mutation. Idx is strictly increasing (stack discipline); RunMin
  /// caches the min over this entry and everything below, giving
  /// compact() an O(1) query.
  struct RetainEnt {
    size_t Idx;      ///< value-stack index this entry describes
    uint64_t W;      ///< smallest absolute offset that value may reference
    uint64_t RunMin; ///< min over this entry and everything below it
  };
  std::vector<RetainEnt> Retain;
  static constexpr uint64_t NoRetain = ~uint64_t(0);
  std::string ErrMsg;
  uint64_t ErrOff = 0; ///< absolute error position (Phase::Fail only)
  Value Out;
  EventBatch EvLog; ///< event mode: undrained events and their text
  /// Recovery state. The scan cursor RePos is window-relative; the
  /// pending diagnostic is complete except for Act/ResumeOff, which the
  /// resynchronization scan fills in before it reaches Errs. Budget
  /// counts every diagnostic ever recorded this stream so takeErrors()
  /// draining cannot reset the MaxErrors accounting. LT mirrors the
  /// whole-buffer recovery driver's lazy line/column tracker — it
  /// absorbs each input byte at most once (compacted-away prefixes in
  /// compact(), the remainder when a diagnostic materializes), so the
  /// streamed Line/Col equal a whole-buffer parse's exactly.
  std::vector<ParseDiagnostic> Errs; ///< resolved, undrained diagnostics
  std::vector<Value> SegVals;        ///< completed segment values
  ParseDiagnostic Pending;           ///< failure awaiting its action
  bool HavePending = false;
  bool Truncated = false; ///< MaxErrors stopped the stream early
  size_t RePos = 0;       ///< window-relative resync scan cursor
  /// The last bytes compacted away before Buf[0] (at most MaxSeqLen-1),
  /// so the resynchronization scan can recognize a multi-byte sync
  /// sequence (csv's "\r\n") split by a compaction boundary — see
  /// SyncSpec::admissible. Maintained by compact(), cleared by reset().
  char SyncShadow[CompiledParser::SyncSpec::MaxSeqLen - 1] = {0};
  size_t ShadowLen = 0;
  /// Slides \p N bytes ending the compacted-away prefix into SyncShadow.
  void absorbShadow(const char *S, size_t N) {
    constexpr size_t Cap = CompiledParser::SyncSpec::MaxSeqLen - 1;
    if (N >= Cap) {
      std::memcpy(SyncShadow, S + (N - Cap), Cap);
      ShadowLen = Cap;
    } else if (N != 0) {
      const size_t Keep = std::min(ShadowLen, Cap - N);
      std::memmove(SyncShadow, SyncShadow + (ShadowLen - Keep), Keep);
      std::memcpy(SyncShadow + Keep, S, N);
      ShadowLen = Keep + N;
    }
  }
  LineTracker LT;
  size_t CarryHW = 0;
  /// Per-stream value arena (see ParseScratch::Pool); reset() keeps it.
  ValuePoolRef Pool = ValuePool::create();
};

} // namespace flap

#endif // FLAP_ENGINE_STREAM_H
