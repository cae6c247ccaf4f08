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
/// memo table. A suspension is therefore just a parked ScanState
/// (ScanKernel.h) plus the residual loop's symbol stack, and the stream
/// runs the whole-buffer residual loop itself (driveImpl in
/// engine/Sink.h, instantiated Streamed).
///
/// Memory model — the carry buffer:
///
///   - Between chunks the parser retains only the *unconsumed window*:
///     bytes from the in-progress lexeme's base onward, plus any earlier
///     bytes still reachable from semantic values (see below). For the
///     benchmark grammars this is tens of bytes, independent of stream
///     length.
///   - Semantic actions may read the text of token spans reachable from
///     their arguments (ParseContext::text / at). For a grammar whose
///     actions do (ActionTable::readsInput()), the parser keeps one
///     conservative *retain watermark*: the lowest value-stack slot
///     that may still reference input, and that slot's absolute offset.
///     A token value retains its span; an action result retains the
///     minimum over its arguments unless it is a scalar
///     (unit/bool/int/real/string), which provably holds no input
///     references. Live watermarks never decrease going up the stack —
///     token begins grow with push order, and a result takes the min of
///     a contiguous top suffix, which is the lowest retaining argument's
///     — so the lowest retaining slot alone bounds the carry: a token
///     push sets it when none is set; an action that consumes it moves
///     it to the result slot when the result is non-scalar and clears it
///     otherwise. The carry is therefore bounded by the span of the
///     oldest *live* (not yet reduced) value — for a stream of
///     documents (ndjson, csv rows, pgn games) that is one document,
///     independent of stream length. A single bracket structure
///     spanning the whole stream (one giant s-expression) retains back
///     to its opening token: its delimiter token sits on the value
///     stack until the matching close, and the parser cannot know the
///     closing action won't read it. Grammars whose actions read no
///     input carry just the in-progress lexeme.
///   - Actions must not stash absolute offsets in user context and
///     dereference them in a *later* action; spans are only addressable
///     while a value referencing them is live on the value stack.
///   - *Event mode* (ParseMode::Events) sidesteps value retention
///     entirely: token text is copied at match time into the undrained
///     outcome's TextArena (ParseOutcome::Text), so the carry is the
///     in-progress lexeme — O(longest lexeme) even for the
///     document-spanning bracket structures above.
///
/// One request, one outcome: a stream is built from the ParseRequest
/// the whole-buffer cores take (entry, mode, error budget, user
/// context) and reports into the ParseOutcome CompiledParser::run fills
/// — values of completed segments, events, diagnostics with line and
/// column, Truncated. drain() hands over what accumulated since the
/// last drain; drained at the end, the outcome equals run()'s on the
/// concatenated chunks at every split (tests/RecoveryDiffTest.cpp). A
/// strict stream is a budget of one: its first failure is the one Fatal
/// diagnostic. With a larger budget a failure skips to the next viable
/// sync point (engine/README.md "The recovery contract"), re-enters the
/// machine at the entry nonterminal and keeps going; the
/// resynchronization scan suspends across chunk boundaries, and a
/// diagnostic reaches the outcome only once its recovery action
/// (Resync/SkipToEnd/Fatal) is known.
///
/// Offsets: all reported offsets — token spans in values, diagnostics,
/// offset() — are absolute stream offsets, identical to a whole-buffer
/// parse of the concatenated chunks (the chunked differential fuzzer
/// asserts byte-identical values and error strings at every split
/// point). Token spans are uint32, so one stream is limited to
/// MaxSpanBytes (4 GiB), like a whole-buffer values parse.
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

struct FailSite;

/// Outcome of a feed()/finish() call.
enum class StreamStatus : uint8_t {
  NeedData, ///< parse suspended cleanly; feed more input or finish()
  Done,     ///< finish() completed; take() yields the value
  Error     ///< parse failed; take() yields the diagnostic
};

/// A resumable parse over one input stream. Not thread-safe; one
/// instance per stream (reset() recycles buffers for the next stream).
class StreamParser {
public:
  /// \p M must outlive the parser. \p Req selects the entry, the mode,
  /// the error budget (1, the default, is strict) and the actions' user
  /// context. Value and event streams refuse an undeclared ValueFree
  /// entry up front (CompiledParser::admit): the outcome then holds the
  /// one Fatal refusal and the stream is in the Error state.
  explicit StreamParser(const CompiledParser &M, ParseRequest Req = {});
  /// One parser per stream: a copy would append to the same undrained
  /// outcome's text arena.
  StreamParser(const StreamParser &) = delete;
  StreamParser &operator=(const StreamParser &) = delete;
  StreamParser(StreamParser &&) = default;
  StreamParser &operator=(StreamParser &&) = default;

  /// Consumes \p Chunk. NeedData means the parse is suspended waiting
  /// for more input (or still resynchronizing); Error means it failed —
  /// errors surface as soon as they are decidable, not at finish().
  StreamStatus feed(std::string_view Chunk);

  /// Ends the stream: runs the suspended scan to end-of-input, absorbs
  /// trailing skip input, and completes the parse.
  StreamStatus finish();

  /// The strict view of the stream. After finish(): the value of the
  /// last completed segment, moved out of the outcome (unit when there
  /// is none: recognize and event modes, or already drained). After a
  /// failure: the message of the diagnostic that ended the stream,
  /// repeatably (the post-error contract — see reset()). Before
  /// finish(): an error.
  Result<Value> take();

  /// Moves out everything reported since the last drain — segment
  /// values, events with the arena their text lives in, diagnostics,
  /// Truncated — leaving an empty outcome. The drained outcome is
  /// self-contained: its event text stays valid after further feeds,
  /// reset() and destruction of the parser. Drain between feeds to keep
  /// consumer memory bounded; the parser itself retains no input beyond
  /// what live values reference (event mode: the in-progress lexeme).
  ParseOutcome drain() { return std::exchange(Res, ParseOutcome()); }
  /// The undrained outcome.
  const ParseOutcome &outcome() const { return Res; }

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
    return WinBase + (Park.Live ? Park.Sc.Base : Pos);
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
  /// error releases the carry, the live values and the retain watermark
  /// immediately — an errored parser holds only the
  /// diagnostic, its position, and the undrained outcome, which is
  /// consumer output and stays retrievable via drain(). take() returns
  /// the error, repeatably; feed()/finish() keep returning Error;
  /// offset() reports the error position; and reset() fully recovers
  /// the parser for the next stream, applying the entry contract again
  /// (a refused entry's outcome again holds its one refusal).
  void reset();

  /// The per-stream value arena (kept warm across reset()); escaped
  /// values pin its pages. Exposed so serving code and tests can observe
  /// arena reuse.
  const ValuePoolRef &pool() const { return Scr.Pool; }

private:
  /// The test seam of tests/StreamDiffTest.cpp (defined there): reads
  /// buffer capacities to pin reset()'s reuse contract.
  friend struct StreamParserTestPeer;

  /// Resync: a failure was recorded within the error budget and the
  /// parser is scanning for the next viable sync point (possibly across
  /// many chunks); status() reports NeedData.
  enum class Phase : uint8_t { Run, Trail, Resync, Done, Fail };

  /// Value mode for a grammar whose actions read input (Stream.cpp): the
  /// library ValueSink plus the retain watermark.
  struct RetainSink;

  /// Admits the request's entry (CompiledParser::admit) and arms the
  /// machine on it, or enters Phase::Fail with the refusal.
  void begin();
  /// One run of the shared residual loop and trailing-skip matcher over
  /// the window (engine/Sink.h) into \p Sk, and the phase transitions
  /// they decide.
  template <typename Tab, bool Final, typename SinkT>
  StreamStatus pumpT(SinkT &Sk);
  template <bool Final> StreamStatus pump();
  /// The outer drive loop: alternates pump() with resynchronization
  /// until the window is exhausted or the stream reaches a terminal
  /// phase. Recovery restarts (fail → resync → re-enter) resolve within
  /// one call when the sync point is already in the window.
  template <bool Final> StreamStatus drivePump();
  /// Every failure, at the site the pump's sink recorded (its segment
  /// already closed): builds the diagnostic and charges it to the budget
  /// — the whole-buffer loop's rule. Within budget the parser enters
  /// Phase::Resync with the diagnostic pending; at the limit, or for a
  /// grammar with no sync tokens, the diagnostic is Fatal and the stream
  /// fails.
  StreamStatus recoverAt(const FailSite &F);
  /// Advances the resynchronization scan over the window. Returns false
  /// when suspended waiting for more input (never when \p Final);
  /// returns true once resolved — the pending diagnostic is pushed with
  /// its action (Resync: parsing re-enters at the sync point;
  /// SkipToEnd: the stream completes) and Ph has left Resync.
  bool stepResync(bool Final);
  void compact();
  /// Fails the stream for a misuse that is not a parse diagnostic
  /// (feed() after finish(), the MaxSpanBytes offset limit): take()
  /// reports \p Msg.
  StreamStatus misuse(const char *Msg, uint64_t ErrOffset);
  /// Enters Phase::Fail: records the error offset and releases the
  /// carry, values, retain watermark, suspended scan and symbol stack
  /// (the post-error contract; see reset()).
  void releaseAfterError(uint64_t ErrOffset);

  const CompiledParser *M;
  ParseRequest Req;
  NtId StartNt = NoNt; ///< the admitted entry (NoNt when refused)
  ErrorBudget Budget;  ///< drain-immune: counts every diagnostic
  /// Whether the retain watermark is kept: value mode over a grammar
  /// with an input-reading action (ActionTable::readsInput()). Without
  /// one the carry is just the in-progress lexeme and the pump runs the
  /// plain ValueSink.
  bool TrackRetain;

  Phase Ph = Phase::Run;
  std::string Buf;       ///< the window: carry + current chunk
  uint64_t WinBase = 0;  ///< absolute stream offset of Buf[0]
  size_t Pos = 0;        ///< window-relative parse position
  scankernel::ParkedScan Park; ///< the scan suspended at the window's end
  /// The symbol stack, the value stack and the per-stream value arena
  /// (kept warm across reset()).
  ParseScratch Scr;
  /// The retain watermark (see the memory model above): the lowest
  /// value-stack slot that may reference input, plus one (0: none), and
  /// the smallest absolute offset it may reference.
  size_t RetainTop = 0;
  uint64_t RetainOff = 0;
  ParseOutcome Res; ///< reported since the last drain()
  /// The failure awaiting its action (Phase::Resync; the scan fills in
  /// Act/ResumeOff before it reaches Res), or the one that ended the
  /// stream (Phase::Fail; take() renders it).
  ParseDiagnostic Diag;
  const char *Misuse = nullptr; ///< Phase::Fail for a misuse, not Diag
  uint64_t ErrOff = 0;          ///< absolute error position (Phase::Fail)
  size_t RePos = 0;             ///< window-relative resync scan cursor
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
  /// The whole-buffer loop's lazy line/column tracker: it absorbs each
  /// input byte at most once (compacted-away prefixes in compact(), the
  /// remainder when a diagnostic materializes), so the streamed
  /// Line/Col equal a whole-buffer parse's exactly.
  LineTracker LT;
  size_t CarryHW = 0;
};

} // namespace flap

#endif // FLAP_ENGINE_STREAM_H
