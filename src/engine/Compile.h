//===- engine/Compile.h - Staged parser compilation (Fig. 10) --*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged parsing algorithm (paper §5.4, Fig. 10), realized as
/// run-time specialization to a flat machine. Each indexed function
/// S_{F_n,k} of the paper — identified by its set of ⟨regex-derivative,
/// continuation⟩ pairs — becomes one machine *state*, memoized exactly
/// like flap memoizes generated functions. All grammar-dependent
/// computation (derivatives, nullability, emptiness, character classes)
/// happens here, at compile time; the residual parse loop branches only
/// on input characters, with no token materialization, no indirect calls
/// and no allocation outside semantic actions.
///
/// Execution-tier layout (this is the hot path of the whole repository):
///
///   - *Dispatch-tier encoding* (first-byte dispatch tables): states are
///     renumbered into tiers — pure self-skip runs, other self-skip
///     accepting, terminal accepting, pure accepting runs, other
///     accepting, then the rest — so the 256-entry transition row of a
///     scan's start state doubles as its *first-byte dispatch table*:
///     the single indexed load of the first transition also answers "is
///     this lexeme already decided?" (terminal accept / pure run), "is
///     it F2 whitespace to commit and rescan in place?" (pure self-skip)
///     and "is the entered state accepting?", all with register compares
///     on the loaded id. The hot loop branches once per short lexeme
///     instead of re-deriving the skip/accept decision per byte. Accept
///     metadata (token, tail) is resolved once per lexeme with direct
///     state-indexed loads.
///   - *Run-state skipping*: states that self-loop over a byte class
///     carry a SkipSet (see RunSkip.h); the scan consumes whole runs
///     16 bytes at a time instead of walking the table per byte.
///   - *Table-width templating*: the scan and the residual loop are
///     instantiated once per table width (uint8 for <= 255 states, int16
///     otherwise); a machine stores only its own width, selected once
///     per parse, not per scan.
///   - *One scan-table set*: the byte-indexed tables, the skip sets and
///     the tier bounds are a ScanTables (engine/DispatchTier.h), built,
///     audited and serialized by the same code as the standalone lexer
///     DFA's. The §5.5 character classes are not a stored table: the
///     emitter branches on byte ranges of transition rows (read through
///     ScanTables::next) and numClasses() counts distinct byte columns
///     on demand.
///   - *Allocation-free residual loop*: continuation tails live in
///     contiguous packed pools (PackedPool, NtPool; offset and length in
///     each state's accept entry), and the
///     symbol/value stacks come from a caller-provided ParseScratch that
///     amortizes to zero allocation across parses.
///
/// The same tables drive the C++ source emitter (src/codegen), whose
/// output mirrors the §5.5 generated-code excerpt — including the same
/// run-skip loops and one residual loop over the packed pools below; the
/// state count is the "Output Functions" column of Table 1.
///
/// One request, one outcome: every parse — whole buffer, batch, record
/// run, stream, and the shard and serving tiers above them — is a
/// ParseRequest (entry, mode, error budget, user context) answered by a
/// ParseOutcome (values, events, diagnostics, truncation) through three
/// cores — run, runBatch and runRecords — or a StreamParser (engine/
/// Stream.h). A strict parse is a request with an error budget of one;
/// a few strict wrappers remain for the repository benchmark (engine/
/// README.md "Entry points").
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_COMPILE_H
#define FLAP_ENGINE_COMPILE_H

#include "cfe/Action.h"
#include "core/Fuse.h"
#include "engine/Diagnostic.h"
#include "engine/DispatchTier.h"
#include "engine/RunSkip.h"
#include "engine/TableStore.h"
#include "support/Result.h"

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flap {

/// One record-sequence run's cursor (CompiledParser::runRecords): a
/// maximal sequence of complete runs of the entry nonterminal, each
/// starting before the run's Limit, scanned against the *full* input
/// with absolute offsets. The record core is the substrate of the
/// data-parallel shard layer (engine/Shard.h): a shard is one record
/// run over [Pos, Limit), and the deterministic machine makes the
/// cross-shard verification rule a single offset compare — a shard's
/// guessed entry state is correct iff its skip-normalized First equals
/// the previous shard's Next. Errors live in the ParseOutcome the run
/// appends to, never here.
struct RecordRun {
  enum class Stop : uint8_t {
    End,     ///< consumed the input: Next == Input.size()
    AtLimit, ///< the next record would start at Next >= Limit
    Error    ///< a Fatal diagnostic ended the run
  };
  Stop S = Stop::End;
  /// Skip-normalized offset where the first record's scan entered (==
  /// Next of a clean predecessor shard). Meaningful even for zero
  /// records (First == Next == the skip-absorbed position).
  size_t First = 0;
  /// Where a sequential continuation picks up: Input.size() for End,
  /// the next record's skip-normalized start for AtLimit, unspecified
  /// after Error.
  size_t Next = 0;
  size_t NumRecords = 0; ///< records completed in this run
};

/// Reusable per-parse working memory. Parsing never shrinks capacity, so
/// a scratch reused across parses makes the residual loop allocation-free
/// after warm-up (semantic actions may still allocate). One scratch per
/// thread; a fresh default-constructed scratch is always valid. Stack
/// entries are the machine's packed symbols (see CompiledParser::packNt).
///
/// Pool is the parse's value arena: pair/list nodes built by tagged
/// actions come from its freelists and recycle as values die, so the
/// reuse discipline extends to structured semantic values. A result that
/// escapes the parse keeps the pool pages alive: a pool outlives its
/// handles while any of its nodes is live (see engine/README.md
/// "Arena-pooled values").
struct ParseScratch {
  std::vector<uint32_t> Stack;
  ValueStack Values;
  ValuePoolRef Pool = ValuePool::create();

  void reset() {
    Stack.clear();
    Values.clear();
  }
};

/// One SAX event emitted by the machine's EventSink driver (engine/
/// Sink.h). The stream mirrors the *rewritten* machine the value engine
/// runs: dead-token elision applies (elided tokens emit no event), and
/// Reduce events name marker occurrences in CompiledParser::OpPool, not
/// raw ActionIds.
///
/// Lexeme-text lifetime: an event is a 24-byte trivially copyable record
/// whose text() views bytes it does not own. The whole-buffer cores
/// (run, runBatch, runRecords, and ShardParser over them) point it into
/// the caller's input — valid while that input is, the
/// same contract Value::token spans have. The streaming parser copies
/// each lexeme at match time into the TextArena its outcome owns
/// (ParseOutcome::Text, engine/Stream.h), so streamed text outlives the
/// window that produced it — which is what bounds the streaming carry
/// to the in-progress lexeme — and lives as long as the drained outcome.
///
/// Ordering contract (replayable into a value builder, see
/// tests/SinkDiffTest.cpp): Enter(N) precedes every scan attempt of
/// nonterminal N; a successful scan emits Token (when the continuation
/// pushes one) before the events of its tail, whose symbols follow left
/// to right; when N's scan instead takes the ε/lookahead fallback,
/// Eps(N) follows that same Enter(N) in place of the Token/tail events.
/// Replaying the stream over a ValueStack — push on Token, run the
/// OpPool occurrence on Reduce, run the nonterminal's pre-fused
/// ε-program (runEpsProgram, engine/Sink.h) on Eps — reproduces the
/// ValueSink result exactly.
///
/// Layout and limits: the 64-bit absolute Begin and the text pointer,
/// then a 32-bit lexeme length and one 32-bit word packing the kind (top
/// 2 bits) and the id (low 30 bits: Nt, Tok or Op). Neither narrowed
/// field can wrap. Ids fit by construction: NtIds stay below
/// CompiledParser::MaxPackedNts and TokenIds below MetaNoTok, and
/// compileFused and the table audit refuse a machine whose OpPool has
/// more than CompiledParser::MaxOps entries. A lexeme longer than
/// MaxLen bytes ends its events request with one Fatal LimitExceeded
/// diagnostic at the lexeme; the events before it stay. Offsets stay
/// 64-bit, so an events request has no input-size limit.
///
/// Construction: the EventSink builds each event in its vector slot,
/// never in a local it copies in — the copy would reload the record with
/// loads wider than the stores that built it, which store-to-load
/// forwarding cannot serve (engine/README.md "The Sink policy"). A Token
/// event goes through the all-fields constructor (emplace_back with its
/// arguments: one store per field); the other kinds take the default
/// member initializers — which leave Begin/Len zero and TextData null,
/// and so are part of the contract (tests/SinkDiffTest.cpp) — and then
/// set KindId.
enum class EventKind : uint8_t {
  Enter, ///< a scan of nonterminal nt() begins
  Token, ///< lexeme accepted: tok() over [Begin, end()), text in text()
  Reduce, ///< marker occurrence op() (an index into CompiledParser::OpPool)
  Eps    ///< nonterminal nt() took its ε/lookahead continuation
};
struct ParseEvent {
  static constexpr unsigned IdBits = 30;
  static constexpr uint32_t MaxId = (uint32_t(1) << IdBits) - 1;
  /// The longest lexeme a Token event can describe.
  static constexpr uint64_t MaxLen = UINT32_MAX;

  uint64_t Begin = 0; ///< Token: absolute span start
  /// Token: the lexeme's first byte (Len bytes; see the lifetime
  /// contract above). Null for the other kinds.
  const char *TextData = nullptr;
  uint32_t Len = 0;    ///< Token: lexeme length in bytes
  uint32_t KindId = 0; ///< kind << IdBits | id (see pack)

  ParseEvent() = default;
  /// Every field at once: what EventSink::token passes to emplace_back,
  /// so a Token event is written once, without the zero stores of the
  /// default member initializers.
  ParseEvent(uint64_t Begin, const char *TextData, uint32_t Len,
             uint32_t KindId)
      : Begin(Begin), TextData(TextData), Len(Len), KindId(KindId) {}

  static constexpr uint32_t pack(EventKind K, uint32_t Id) {
    return static_cast<uint32_t>(K) << IdBits | Id;
  }
  EventKind kind() const { return static_cast<EventKind>(KindId >> IdBits); }
  /// Whichever of nt()/tok()/op() the kind uses.
  uint32_t id() const { return KindId & MaxId; }
  NtId nt() const { return id(); }                           ///< Enter, Eps
  TokenId tok() const { return static_cast<TokenId>(id()); } ///< Token
  uint32_t op() const { return id(); }                       ///< Reduce
  uint64_t end() const { return Begin + Len; }               ///< Token

  /// Token: the lexeme text; empty for the other kinds.
  std::string_view text() const { return {TextData, Len}; }

  /// Compares kind, id, span and text *content* — events viewing
  /// different copies of the same bytes are equal.
  bool operator==(const ParseEvent &O) const {
    return KindId == O.KindId && Begin == O.Begin && Len == O.Len &&
           text() == O.text();
  }
  bool operator!=(const ParseEvent &O) const { return !(*this == O); }
};

/// Address-stable byte storage: bytes once copied never move, so views
/// into them stay valid for the arena's lifetime. Backs the text of
/// streamed events (ParseOutcome::Text, engine/Stream.h).
class TextArena {
public:
  TextArena() = default;
  TextArena(const TextArena &) = delete;
  TextArena &operator=(const TextArena &) = delete;

  /// Copies \p N bytes from \p P; returns where the copy lives.
  const char *copy(const char *P, size_t N) {
    if (!Cur || N > Left)
      grow(N);
    char *Dst = Cur;
    std::memcpy(Dst, P, N);
    Cur += N;
    Left -= N;
    return Dst;
  }

private:
  void grow(size_t N);
  std::vector<std::unique_ptr<char[]>> Blocks;
  char *Cur = nullptr;
  size_t Left = 0;
  size_t NextBlock = 0; ///< next block's size; doubles up to a cap
};

/// What a request produces (drive modes: ParseRequest). Values mode
/// delivers the value of every completed segment — one per clean input,
/// one per record in a record run; events mode the event stream of every
/// segment, completed or not (failed segments keep the events already
/// emitted); recognize mode only the verdict. Errors holds every
/// diagnostic in input order; Truncated is set when the error budget or
/// a LimitExceeded diagnostic ended the parse. A clean outcome has no
/// errors: exactly the strict parse's result. The streaming parser fills
/// the same outcome (StreamParser::drain).
struct ParseOutcome {
  std::vector<Value> Values;
  std::vector<ParseEvent> Events;
  std::vector<ParseDiagnostic> Errors;
  bool Truncated = false;
  /// The bytes streamed events' text views (the stream copies each
  /// lexeme here at match time); null for the whole-buffer cores, whose
  /// events view the caller's input. Shared, so every copy of the
  /// outcome keeps its events' text alive.
  std::shared_ptr<TextArena> Text;

  bool clean() const { return Errors.empty() && !Truncated; }
  /// Empties the outcome, keeping the vectors' capacity.
  void clear() {
    Values.clear();
    Events.clear();
    Errors.clear();
    Truncated = false;
    Text.reset();
  }
};
using RecoveredParse = ParseOutcome;

/// The three things a request can ask the machine for.
enum class ParseMode : uint8_t {
  Values,   ///< run the semantic actions (ValueSink)
  Events,   ///< append the SAX stream (EventSink)
  Recognize ///< verdict and diagnostics only (RecognizeSink)
};

/// One parse request — the only way in to the machine's cores (see
/// engine/README.md "Entry points"). Strict parsing is recovery with an
/// error budget of one: MaxErrors = 1 stops at the first error, larger
/// budgets resynchronize after each error at the entry's sync bytes
/// (CompiledParser::SyncSpec) until the budget is spent.
struct ParseRequest {
  NtId Entry = NoNt; ///< entry nonterminal; NoNt → the machine's Start
  ParseMode Mode = ParseMode::Values;
  size_t MaxErrors = 1; ///< error budget; 1 is strict (see ErrorBudget)
  void *User = nullptr; ///< ParseContext::User for the actions
};

/// A fully staged, token-free parser.
class CompiledParser {
public:
  /// A continuation selected by a completed match: optionally push the
  /// matched span as a token value, then parse the tail, which lives at
  /// TailPool[TailOff, TailOff+TailLen).
  struct Cont {
    TokenId PushTok = NoToken; ///< NoToken: skip production, push nothing
    /// F2 whitespace production n → r_skip n: the machine re-scans the
    /// same nonterminal in place instead of a stack round-trip (the
    /// generated code's direct tail call, §5.5).
    bool SelfSkip = false;
    uint32_t TailOff = 0;
    uint32_t TailLen = 0;
  };

  /// The flattened tail of \p K, oldest symbol first.
  const Sym *tail(const Cont &K) const { return TailPool.data() + K.TailOff; }

  //===--------------------------------------------------------------===//
  // The request cores (engine/README.md "Entry points")
  //
  // Every whole-buffer, batch, record, shard and serve call runs through
  // these three. A core checks the entry once, selects the table width
  // and builds its sink once, then drives the machine — for a whole
  // batch or record run, not per input. On failure a core records a
  // ParseDiagnostic and, while the request's error budget lasts, skips
  // to the next *sync byte* of the entry nonterminal (derived at
  // compileFused time, see SyncSpec) and re-enters the machine there.
  // On clean input that is the plain driver plus one branch per parse,
  // so a budget costs nothing when nothing fails (BENCH_recovery.json
  // gates this at 5%).
  //===--------------------------------------------------------------===//

  /// One input. Appends to \p Out (values, events, diagnostics with
  /// line/column) and returns true when this call recorded no
  /// diagnostic. The whole input must parse: trailing input after a
  /// completed value is a Trailing diagnostic (the value is delivered).
  /// Value and event modes refuse an undeclared ValueFree entry with
  /// entryRefusal() and Truncated.
  bool run(const ParseRequest &Req, std::string_view Input,
           ParseScratch &Scratch, ParseOutcome &Out) const;

  /// The batch core for serving workloads: \p Out becomes one outcome
  /// per input, identical to run() on each, with one warmed scratch
  /// (symbol/value stacks and the pool arena carry their capacity across
  /// inputs) and the entry check, table width and sink hoisted out of
  /// the loop. Outcomes already in \p Out are cleared and reused, so a
  /// caller that keeps its vector across batches allocates nothing per
  /// input once warm. \p Users (when non-null) supplies input I's action
  /// context instead of Req.User — context-accumulating grammars
  /// (csv/pgn/ppm) need one fresh context per document. Values may
  /// outlive the batch and the scratch (pooled nodes pin their pages,
  /// see engine/README.md).
  void runBatch(const ParseRequest &Req, const std::string_view *Inputs,
                size_t N, ParseScratch &Scratch,
                std::vector<ParseOutcome> &Out,
                void *const *Users = nullptr) const;

  /// The record core (the shard substrate, engine/Shard.h): successive
  /// complete runs of the entry nonterminal ("records": NDJSON
  /// documents, csv rows, pgn games) while each record *starts* before
  /// \p Limit, scanning against the full input — a record may run past
  /// Limit; the overrun is reported through RecordRun::Next so the next
  /// shard can verify its guessed boundary against it. Limit ==
  /// Input.size() is the sequential reference the shard layer's
  /// stitched output is byte-identical to. Offsets are absolute; Line
  /// and Col count from \p Pos (line 1, column 1), so a run from 0
  /// reports text-editor positions. A failed record drops its value,
  /// keeps its events, and resumes at the next viable sync point while
  /// the budget lasts; a record nonterminal that matches empty input is
  /// one Fatal EmptyRecord diagnostic in every mode.
  RecordRun runRecords(const ParseRequest &Req, std::string_view Input,
                       size_t Pos, size_t Limit, ParseScratch &Scratch,
                       ParseOutcome &Out) const;

  //===--------------------------------------------------------------===//
  // Strict wrappers over the cores. Each fails with exactly
  // Errors[0].message() and drops a completed value on a trailing-input
  // failure. They stay because the repository benchmark (perfbench/)
  // calls them; engine/README.md lists them.
  //===--------------------------------------------------------------===//

  /// Values from Start; the hot entry point for servers and benches.
  Result<Value> parse(std::string_view Input, ParseScratch &Scratch,
                      void *User = nullptr) const;
  /// Values from an arbitrary nonterminal — the machine is one table set
  /// shared by every entry point (paper §8) — with a fresh scratch.
  Result<Value> parseFrom(NtId StartNt, std::string_view Input) const;
  /// Recognition from Start: no values, no actions.
  bool recognize(std::string_view Input, ParseScratch &Scratch) const;
  /// SAX: appends the event stream (see ParseEvent for the ordering and
  /// lifetime contract) to \p Events, keeping its capacity.
  Status parseEvents(NtId StartNt, std::string_view Input,
                     ParseScratch &Scratch,
                     std::vector<ParseEvent> &Events) const;
  /// Strict batch: one Result per input (runBatch with budget 1).
  std::vector<Result<Value>>
  parseBatch(NtId StartNt, const std::vector<std::string_view> &Inputs,
             ParseScratch &Scratch) const;
  /// Recovering batch: runBatch with DefaultMaxErrors.
  std::vector<ParseOutcome>
  parseBatchRecover(NtId StartNt, const std::vector<std::string_view> &Inputs,
                    ParseScratch &Scratch) const;
  /// Strict SAX record run (runRecords with budget 1); the error, if
  /// any, is dropped — Stop::Error says there was one.
  RecordRun parseEventsRecords(NtId R, std::string_view Input, size_t Pos,
                               size_t Limit, ParseScratch &Scratch,
                               std::vector<ParseEvent> &Events) const;

  /// The entry contract (engine/README.md "Entry points"): value and
  /// event modes refuse a ValueFree nonterminal — one that was not a
  /// declared entry at compileFused time, so dead-token elision could
  /// erase its value — with this one structured Fatal diagnostic.
  /// Recognize mode accepts any entry.
  ParseDiagnostic entryRefusal(NtId N) const;
  /// The request's entry with the entry contract applied — what every
  /// core and the streaming parser run first: a refused entry appends
  /// the one Fatal entryRefusal() to \p Out, sets Truncated and yields
  /// NoNt.
  NtId admit(const ParseRequest &Req, ParseOutcome &Out) const;

  /// The one resynchronization scan (engine/README.md "The recovery
  /// contract"): the first resume point at or after \p P in S[0, Len) —
  /// J + 1 for the first sync byte J of entry \p R that is admissible
  /// (SyncSpec::admissible, with \p Pre / \p PreLen the bytes before S)
  /// and whose next byte can enter R. Returns NoResume when [P, Len)
  /// decides none: there is no sync byte left, or the last one is
  /// S[Len-1], whose successor is not known yet. \p P is then the first
  /// undecided position, where a stream restarts the scan once more
  /// input arrives; at end of input NoResume means SkipToEnd.
  static constexpr size_t NoResume = ~size_t(0);
  size_t findResume(NtId R, const char *S, size_t &P, size_t Len,
                    const char *Pre = nullptr, size_t PreLen = 0) const;

  /// Number of machine states = generated functions (Table 1, "Output
  /// Functions").
  int numStates() const { return static_cast<int>(AcceptCont.size()); }
  int numClasses() const { return Scan.numClasses(); }

  //===--------------------------------------------------------------===//
  // Tables (public: read by the code generator, the verifier and tests)
  //
  // Every hot table is a Table<T> (engine/TableStore.h): owned vector
  // storage when compileFused builds it, a borrowed view into an mmap'd
  // section when engine/Artifact.h loads it — the read API is identical
  // and branch-free either way.
  //===--------------------------------------------------------------===//

  /// The scan tables (engine/DispatchTier.h): the transition table in
  /// the one width the state count selects (Trans8 up to
  /// MaxSmallStates states, else Trans16), the run-skip sets and the
  /// tier bounds.
  ///
  /// State ids are tiered (the dispatch-tier encoding). The coarse
  /// partition: [0, SelfSkip) accept a SelfSkip (F2 whitespace)
  /// continuation, [SelfSkip, Accept) accept a regular continuation, the
  /// rest do not accept. Both per-byte acceptance and the end-of-lexeme
  /// "rescan in place?" decision are register compares — no table load.
  ///
  /// Each coarse tier is further split so one transition load classifies
  /// a lexeme's entry (the *first-byte dispatch table*: the 256-entry
  /// row of the start state). In Scan.Tiers:
  ///
  ///   [0, PureSkip)          pure self-skip runs: F2 whitespace states
  ///                          whose outgoing transitions stay within the
  ///                          self-loop — the committed whitespace run is
  ///                          the whole lexeme and the scan re-dispatches
  ///                          in place.
  ///   [PureSkip, SelfSkip)   other self-skip accepting.
  ///   [SelfSkip, TermAcc)    terminal accepting: no outgoing transitions
  ///                          at all — the lexeme is decided by the
  ///                          dispatch load alone (json's structural
  ///                          bytes live here).
  ///   [TermAcc, PureAcc)     pure accepting runs: outgoing ⊆ the
  ///                          (nonempty) self-loop — the run consumed by
  ///                          the bulk classifier is the rest of the
  ///                          lexeme, acceptance decided once (sexp
  ///                          atoms, bare identifiers).
  ///   [PureAcc, Accept)      other accepting.
  ScanTables Scan;
  /// Width limits enforced by compileFused (packNt packs an NtId into 15
  /// bits and a start state into 16; Trans16 stores ids as int16).
  static constexpr size_t MaxPackedNts = 0x7fff;
  static constexpr size_t MaxPackedStates = size_t(1) << 15;
  /// Marker occurrences one machine may hold: a Reduce event names its
  /// OpPool index in ParseEvent's 30-bit id field. compileFused and the
  /// table audit (engine/Verify.h) refuse a larger pool.
  static constexpr size_t MaxOps = size_t(ParseEvent::MaxId) + 1;
  /// [State] → continuation selected when this state is reached with the
  /// longest match so far, or -1. The reference world the verifier and
  /// the artifacts keep, read also by tests and the bench's flap(prePR)
  /// walk; the accelerated loop and the code generator use the
  /// state-indexed Acc* arrays below instead.
  Table<int32_t> AcceptCont;
  Table<Cont> Conts;
  /// All continuation tails, flattened back-to-back (oldest first).
  Table<Sym> TailPool;

  //===--------------------------------------------------------------===//
  // State-indexed accept metadata ([0, Scan.Tiers.Accept) entries): the
  // scan resolves a finished lexeme with direct loads off the best state
  // id, no AcceptCont→Conts pointer chase.
  //
  // Dispatch-level accept-metadata fusion: the token, tail length and
  // tail offset are *packed into one 64-bit entry* per accepting state —
  // [63:48] token id (MetaNoTok when the continuation pushes nothing, or
  // dead-token elision proved the value unobservable), [47:32] tail
  // length, [31:0] tail offset — so a finished lexeme (in particular a
  // terminal-accept dispatch entry, json's structural bytes) resolves
  // its whole continuation with a single indexed load and shifts instead
  // of three dependent array reads. compileFused guards the packing
  // widths like every other packed format (no silent wrap).
  //===--------------------------------------------------------------===//

  /// Parse-loop entries (tails in PackedPool, token possibly elided).
  Table<uint64_t> AccMeta;
  /// Recognize-loop entries (tails in NtPool, token always MetaNoTok).
  Table<uint64_t> AccNtMeta;
  static constexpr uint32_t MetaNoTok = 0xffffu;
  static uint32_t metaTok(uint64_t M) {
    return static_cast<uint32_t>(M >> 48);
  }
  static uint32_t metaLen(uint64_t M) {
    return static_cast<uint32_t>(M >> 32) & 0xffffu;
  }
  static uint32_t metaOff(uint64_t M) { return static_cast<uint32_t>(M); }
  static uint64_t packMeta(TokenId Tok, uint32_t Len, uint32_t Off) {
    const uint64_t T = Tok == NoToken
                           ? static_cast<uint64_t>(MetaNoTok)
                           : static_cast<uint64_t>(static_cast<uint32_t>(Tok));
    return (T << 48) | (static_cast<uint64_t>(Len) << 32) | Off;
  }

  /// Packed symbols: bit 31 set → action marker; clear → nonterminal,
  /// bits 16..30 the NtId and bits 0..15 its scan start state (so
  /// popping a work item needs no NtInfo load). In PackedPool (the parse
  /// loop's pool) the low 31 bits of a marker index OpPool — the
  /// per-occurrence micro-op, possibly rewritten by dead-token elision —
  /// not the ActionId directly.
  static constexpr uint32_t ActBit = 0x80000000u;

  /// One 16-byte micro-op per marker occurrence in PackedPool. MSlow
  /// occurrences carry their ActionId in Imm (the full Action record
  /// dispatch); MicroOp::FRewritten marks occurrences adjusted by
  /// dead-token elision.
  ///
  /// Dead-token elision: a production that pushes a token whose value is
  /// consumed by a scalar micro-op marker that provably ignores it (the
  /// width discipline makes the token's argument position exact at
  /// compile time) never materializes the token — the AccMeta entry's
  /// token field is MetaNoTok and
  /// the consuming occurrence's op here has the token argument compiled
  /// out. A Select reduced to the identity becomes MNop and is dropped
  /// from the pool entirely.
  Table<MicroOp> OpPool;
  /// Originating ActionId per OpPool entry (cold: verifier and
  /// diagnostic use only).
  Table<ActionId> OpActs;
  uint32_t packNt(NtId N) const {
    return (static_cast<uint32_t>(N) << 16) |
           static_cast<uint32_t>(Nts[N].StartState);
  }
  static NtId packedNt(uint32_t E) { return (E >> 16) & 0x7fffu; }
  Table<uint32_t> PackedPool; ///< full tails, packed
  Table<uint32_t> NtPool;     ///< tails restricted to nonterminals

  struct NtInfo {
    int32_t StartState = -1;
    /// Index into EpsChains when the nonterminal has an ε/lookahead
    /// fallback (`back` continuation), else -1 (`no` → parse error).
    int32_t EpsChain = -1;
    /// Dead-token elision erased this nonterminal's value entirely (a
    /// pure token nonterminal all of whose consumers ignore it). Never
    /// set on a declared entry; as an undeclared entry — the only
    /// context where its value would have been observable — value and
    /// event modes refuse it (entryRefusal).
    bool ValueFree = false;
  };
  Table<NtInfo> Nts;
  std::vector<std::string> NtNames; ///< diagnostics only (cold)
  /// Per nonterminal: human-readable expected-token list, e.g.
  /// "rpar, atom" — derived from the fused productions' provenance and
  /// used in parse error messages.
  std::vector<std::string> NtExpected;

  /// Per-nonterminal resynchronization metadata, derived at compileFused
  /// time by the same net-effect fixpoint family that drives dead-token
  /// elision: a LAST(n) fixpoint collects the tokens that can *end* a
  /// completed parse of n, and a token contributes a sync byte when its
  /// lexer rule is a short literal ending in a structural (non-
  /// alphanumeric) byte — NDJSON's '}'/']', csv's "\r\n", sexp's ')',
  /// pgn's '*'. When the grammar's skip language contains '\n', the
  /// newline joins the set (records in every line-oriented corpus end at
  /// one). Recovery skips to the next sync byte and re-enters the entry
  /// nonterminal just past it.
  struct SyncSpec {
    bool HasSync = false;
    /// The sync bytes themselves (membership tests, introspection).
    SkipSet Sync;
    /// Complement of Sync, finalized: skipRun() over it lands exactly on
    /// the next sync byte, reusing the bulk run-skip kernels for the
    /// resynchronization scan.
    SkipSet NotSync;
    /// Sync bytes that are only valid as the tail of a multi-byte sync
    /// *sequence* (csv's "\r\n": a bare '\n' inside a quoted field's
    /// replacement text is not a record boundary). The scan still lands
    /// on the byte via NotSync; admissible() then confirms the preceding
    /// bytes spell one of Seqs before recovery resumes there. Bytes in
    /// Sync but not SeqOnly stay standalone.
    SkipSet SeqOnly;
    /// The sync sequences backing SeqOnly, each ending in a Sync byte.
    std::vector<std::string> Seqs;
    static constexpr size_t MaxSeqLen = 4;

    /// True when the sync byte at \p S[J] may anchor a resume: either it
    /// is standalone, or the bytes before it complete one of Seqs. The
    /// streaming parser passes the up-to-MaxSeqLen-1 bytes it retains
    /// from before the window as \p Pre / \p PreLen, so a sequence split
    /// across a compaction boundary is still recognized.
    bool admissible(const char *S, size_t J, const char *Pre = nullptr,
                    size_t PreLen = 0) const {
      const unsigned char B = static_cast<unsigned char>(S[J]);
      if (!SeqOnly.test(B))
        return true;
      for (const std::string &Q : Seqs) {
        const size_t L = Q.size();
        if (static_cast<unsigned char>(Q[L - 1]) != B)
          continue;
        const size_t Need = L - 1;
        if (Need <= J) {
          if (!memcmp(S + J - Need, Q.data(), Need))
            return true;
        } else {
          const size_t Borrow = Need - J;
          if (Borrow <= PreLen &&
              !memcmp(Pre + PreLen - Borrow, Q.data(), Borrow) &&
              !memcmp(S, Q.data() + Borrow, J))
            return true;
        }
      }
      return false;
    }
  };
  std::vector<SyncSpec> SyncSpecs; ///< parallel to Nts

  /// True when the entry dispatch row of \p N has a transition on \p B —
  /// the recovery drivers' test that a candidate resume point can start
  /// a lexeme (skip bytes count: F2 gives every nonterminal a
  /// whitespace production, so its dispatch row covers them).
  bool entryLive(NtId N, unsigned char B) const {
    return Scan.next(Nts[N].StartState, B) >= 0;
  }
  std::vector<std::vector<ActionId>> EpsChains;

  /// A pre-fused ε-marker chain: the micro-op program the hot loops run
  /// when a nonterminal takes its `back` (lookahead/ε) continuation —
  /// one table-driven block instead of N ValueStack::apply round-trips.
  /// Compiled from EpsChains by compileFused; the chains themselves stay
  /// around as the source form (verifier, artifacts).
  struct EpsProgram {
    enum Kind : uint8_t {
      Unit,     ///< empty chain: push Value::unit()
      OneConst, ///< single arity-0 Const action: push ConstVal directly
      Ops       ///< run EpsOps[Off, Off+Len): general fused block
    } K = Unit;
    uint32_t Off = 0, Len = 0;
    /// Worst-case net value-stack growth while the block runs, so one
    /// reserve up front covers every push.
    uint32_t MaxGrow = 0;
    Value ConstVal;
  };
  std::vector<EpsProgram> EpsPrograms; ///< parallel to EpsChains
  std::vector<ActionId> EpsOps;        ///< flattened chain bodies

  /// Start state of the skip-only matcher (trailing whitespace), or -1.
  int32_t SkipState = -1;
  NtId Start = NoNt;
  const ActionTable *Actions = nullptr;

  static constexpr int32_t Dead = -1;
};

/// Stages the fused grammar into a CompiledParser. \p MaxStates bounds
/// specialization (generation is memoized and guaranteed to terminate,
/// but a bound keeps adversarial grammars polite). F.Start is a declared
/// entry: dead-token elision never erases its value.
Result<CompiledParser> compileFused(RegexArena &Arena,
                                    const FusedGrammar &F,
                                    const ActionTable &Actions,
                                    size_t MaxStates = 1u << 14);

/// Overload that also precomputes expected-token diagnostics from the
/// token registry and declares the pipeline's other roots (\p Entries,
/// compileFlapMulti's entry points) beside F.Start.
Result<CompiledParser> compileFused(RegexArena &Arena,
                                    const FusedGrammar &F,
                                    const ActionTable &Actions,
                                    const TokenSet *Tokens,
                                    const std::vector<NtId> &Entries = {},
                                    size_t MaxStates = 1u << 14);

/// (Re)derives M.EpsPrograms and M.EpsOps from M.EpsChains and the
/// action table — the ε-chain pre-fusion step of compileFused, exposed
/// separately because an artifact load must rerun it: EpsProgram holds
/// a live Value (OneConst) and EpsOps references the in-process action
/// table, so neither serializes; both rebuild in microseconds from the
/// serialized chains (engine/Artifact.cpp).
void buildEpsPrograms(CompiledParser &M, const ActionTable &Actions);

} // namespace flap

#endif // FLAP_ENGINE_COMPILE_H
