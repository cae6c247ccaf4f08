//===- engine/Shard.h - Data-parallel shard parsing -------------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Speculative data-parallel parsing of record-delimited corpora
/// (NDJSON, csv rows, pgn games) over the staged fused machine.
///
/// The paper's determinism is what makes this cheap. A record-sequence
/// parse is a chain of *fresh entries* of one record nonterminal R, each
/// from a skip-normalized offset with an empty stack — so the machine
/// state at every record boundary is fully described by one number, the
/// boundary's byte offset. Sharding therefore needs no state-vector
/// simulation (cf. the speculative DFA literature): guess K-1 candidate
/// boundaries, parse the K shards concurrently, and *verify* each
/// shard's guessed entry state against its predecessor's exit state with
/// a single offset compare:
///
///   shard i verified  ⟺  shards[i].First == shards[i-1].Next
///
/// where both sides are skip-normalized (the record core absorbs skip
/// input before each record) — entering the machine at P and past the
/// skip run at P is observationally identical. A mismatch means the guess split inside a record (e.g. a
/// '}' inside a json string); the shard's speculative output is
/// discarded and the range is re-parsed from the true boundary on the
/// stitching thread. Verified shards stitch in input order, so the
/// result — values, events, diagnostics, error strings, stats — is
/// byte-identical to the sequential record run (the Limit=size parse;
/// tests/ShardDiffTest.cpp asserts this for every candidate split byte
/// and for forced wrong-boundary speculation on all six grammars).
///
/// Every mode and budget is one ParseRequest through one stitch loop:
/// a strict parse is a budget of one. Each shard spends the whole
/// budget locally; when the errors stitched so far plus a shard's own
/// reach the budget, that shard is re-run on the stitching thread with
/// the budget that remains, so it stops at exactly the sequential
/// diagnostic.
///
/// Candidate boundaries come from the machine's own classifiers: a
/// position J+1 is a candidate iff Input[J] is a sync byte of R's
/// SyncSpec, admissible() accepts it (multi-byte sequences like csv's
/// CRLF), and entryLive(R, Input[J+1]) holds — exactly the resume test
/// sync-token recovery uses, reused for boundary guessing.
///
/// Thread model: a ShardParser owns NumWorkers-1 dedicated threads (the
/// calling thread is worker 0) and NumWorkers ParseScratch arenas. Each
/// parse call hands every worker a fresh ValuePool, so results escaping
/// the call never share a freelist with a later call's workers; the
/// caller adopts every pool after the join (see ValuePool's single-owner
/// rule), and the user destroys the returned values on one thread, as
/// with any parse result. Within a call the only synchronization is the
/// task dispatch and one completion barrier — no locks in the parse
/// loops — so json/csv corpora scale near-linearly with cores
/// (BENCH_parallel.json records the trajectory).
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_SHARD_H
#define FLAP_ENGINE_SHARD_H

#include "engine/Compile.h"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace flap {

struct ShardOptions {
  /// Worker count including the calling thread; 0 → hardware
  /// concurrency.
  size_t Threads = 0;
  /// Inputs shorter than Threads * MinShardBytes use fewer shards (down
  /// to a plain sequential run) — splitting tiny inputs costs more in
  /// dispatch than it saves in parsing.
  size_t MinShardBytes = 1 << 15;
  /// Per-shard context factory for stateful grammars whose contexts are
  /// NOT safe for concurrent mutation (csv column stats, pgn result
  /// tallies, ppm sample sums). Without it every shard shares the
  /// request's User, which must then be safe for concurrent reads. When
  /// set, every shard — and every re-run, whose speculative context is
  /// discarded — gets a fresh context, and the request's User is
  /// instead the *accumulator*: after verification the stitcher folds
  /// each consumed shard's context into it via MergeCtx, in input order,
  /// up to and including the shard where the parse stopped. Only value
  /// mode runs actions, so only it consumes contexts.
  std::function<std::shared_ptr<void>()> MakeCtx;
  /// Folds one verified shard's context into \p Accum (the request's
  /// User); called on the stitching thread, input order, no
  /// concurrency.
  std::function<void(void *Accum, void *ShardCtx)> MergeCtx;
};

/// Parallelism accounting for one parse call.
struct ShardStats {
  size_t Shards = 1;        ///< shards actually run
  size_t Mispredicted = 0;  ///< shards whose guessed boundary was wrong
  size_t ReparsedBytes = 0; ///< bytes re-parsed sequentially after misses
};

/// One sharded parse: the outcome the sequential record run produces
/// (values, events, diagnostics with line/column, Truncated), its
/// record count and the speculation counters.
struct ShardOutcome : ParseOutcome {
  size_t NumRecords = 0;
  ShardStats Stats;
  /// Errors.empty(), and Errors[0].message() otherwise — kept for the
  /// repository benchmark, which reads them.
  bool Ok = true;
  std::string ErrMsg;
};
using ShardedValues = ShardOutcome;
using ShardedRecognize = ShardOutcome;

/// A reusable parallel parser for record-delimited corpora: bind it to
/// a machine and a record nonterminal (compileFlapRecords() +
/// recordEntry()), then parse any number of inputs. One ShardParser per
/// calling thread; calls are not reentrant.
class ShardParser {
public:
  ShardParser(const CompiledParser &M, NtId Record, ShardOptions O = {});
  ~ShardParser();
  ShardParser(const ShardParser &) = delete;
  ShardParser &operator=(const ShardParser &) = delete;

  /// The request entry point: parses \p Input as a record sequence of
  /// the bound record nonterminal (Req.Entry must be NoNt or it) in
  /// Req.Mode with Req.MaxErrors. \p Splits forces the guess
  /// boundaries (tests force wrong-boundary speculation through it;
  /// Splits[0] must be 0, offsets strictly increasing — they need NOT
  /// be admissible candidates, verification repairs any wrong guess);
  /// null plans them (planSplits over the worker count).
  ShardOutcome run(const ParseRequest &Req, std::string_view Input,
                   const std::vector<size_t> *Splits = nullptr);

  /// Strict values, planned / at \p Splits, and strict recognition —
  /// run() wrappers the repository benchmark calls.
  ShardOutcome parseValues(std::string_view Input);
  ShardOutcome parseValuesAt(std::string_view Input,
                             const std::vector<size_t> &Splits);
  ShardOutcome recognize(std::string_view Input);

  /// The planned guess boundaries for \p Shards shards: strictly
  /// increasing offsets, first always 0; fewer when no admissible
  /// candidate exists near a target (a grammar without sync bytes plans
  /// a single shard). Exposed for tests and benches.
  std::vector<size_t> planSplits(std::string_view Input,
                                 size_t Shards) const;

  /// Every admissible candidate boundary in \p Input (the full
  /// speculation space; the differential fuzzer parses at each one).
  std::vector<size_t> candidateSplits(std::string_view Input) const;

  size_t workers() const { return NumWorkers; }

private:
  struct Batch;
  struct Task;

  /// Runs Fn(task, worker) over NumTasks tasks on all workers (the
  /// caller participates as worker 0) and returns after the last task
  /// completes. The only synchronization of a parse call.
  void runTasks(size_t NumTasks,
                const std::function<void(size_t, size_t)> &Fn);

  void workerLoop(size_t W);
  void runBatch(Batch &B, size_t W);

  std::vector<Task> makeTasks(std::string_view Input,
                              const std::vector<size_t> &Splits) const;
  void runOneTask(const ParseRequest &Req, std::string_view Input, Task &T,
                  ParseScratch &Sc) const;
  void runShards(const ParseRequest &Req, std::string_view Input,
                 std::vector<Task> &Tasks);

  const CompiledParser &M;
  NtId Record;
  ShardOptions Opts;
  size_t NumWorkers;

  /// Per-worker arenas (index NumWorkers belongs to the stitching
  /// thread for mispredict re-parses); pools are replaced with fresh
  /// ones at every parse call so escaped results never share a
  /// freelist with later calls.
  std::vector<ParseScratch> Scratches;

  std::mutex Mu;
  std::condition_variable WorkCv; ///< workers: a new batch is up
  std::condition_variable DoneCv; ///< caller: all tasks completed
  std::shared_ptr<Batch> Cur;     ///< guarded by Mu
  bool Stopping = false;
  std::vector<std::thread> Threads;
};

} // namespace flap

#endif // FLAP_ENGINE_SHARD_H
