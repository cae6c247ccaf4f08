//===- engine/Shard.cpp - Data-parallel shard parsing --------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
//
// Implementation notes.
//
// A parse call has exactly three synchronization points: the batch
// dispatch (one mutex acquire + condvar broadcast), the per-task
// completion counter, and the caller's completion wait. Everything
// between — the shard parses themselves — runs lock-free on per-worker
// ParseScratch arenas. Misprediction repair and stitching happen on the
// calling thread after the join, so they see every shard's output
// through the completion counter's acquire/release pairing.
//
// Batches are heap-shared (shared_ptr) rather than slots reused across
// calls: a worker that oversleeps one batch entirely, or is still
// spinning its claim loop when the next batch is posted, only ever
// touches *its own* batch object, whose task counter is exhausted — it
// can never steal a task from a later batch with a stale function
// pointer. The claim counter may overshoot NumTasks (fetch_add by
// latecomers); overshoot claims fail the bound check and never
// dereference Fn.
//
//===----------------------------------------------------------------------===//

#include "engine/Shard.h"

#include <algorithm>
#include <atomic>
#include <cassert>

using namespace flap;

namespace {
constexpr size_t Npos = static_cast<size_t>(-1);

/// First admissible candidate boundary at offset >= From: a position
/// C (= J+1) whose preceding byte J is an admissible sync byte of R and
/// whose own byte can start a lexeme of R. Npos when none before Len
/// (a boundary at Len would only make an empty shard).
size_t nextCandidate(const CompiledParser &M, NtId R,
                     const CompiledParser::SyncSpec &SS, std::string_view In,
                     size_t From) {
  const size_t Len = In.size();
  size_t P = From == 0 ? 0 : From - 1;
  for (;;) {
    const size_t J = skipRun(SS.NotSync, In.data(), P, Len);
    if (J + 1 >= Len)
      return Npos;
    if (SS.admissible(In.data(), J) &&
        M.entryLive(R, static_cast<unsigned char>(In[J + 1])))
      return J + 1;
    P = J + 1;
  }
}
} // namespace

/// One shard's slice and its speculative output. Outcomes are per-task
/// (not shared) so workers never contend and the stitcher can discard
/// a mispredicted shard wholesale.
struct ShardParser::Task {
  size_t Begin = 0; ///< guessed (or, shard 0, true) entry offset
  size_t Limit = 0; ///< next shard's guess; records may overrun it
  /// Per-shard action context (ShardOptions::MakeCtx); null when the
  /// request's shared User is in effect.
  std::shared_ptr<void> Ctx;
  RecordRun RR;
  ParseOutcome Out;
};

struct ShardParser::Batch {
  std::atomic<size_t> Next{0}; ///< task claim counter (may overshoot)
  std::atomic<size_t> Done{0}; ///< completed tasks; release per task
  size_t NumTasks = 0;
  const std::function<void(size_t, size_t)> *Fn = nullptr;
};

ShardParser::ShardParser(const CompiledParser &M, NtId Record, ShardOptions O)
    : M(M), Record(Record), Opts(O) {
  assert(Record < M.Nts.size() && "record nonterminal out of range");
  size_t T = Opts.Threads ? Opts.Threads : std::thread::hardware_concurrency();
  if (!T)
    T = 1;
  NumWorkers = T;
  // Index NumWorkers is the stitching thread's arena (mispredict
  // re-parses); workers use [0, NumWorkers).
  Scratches.resize(NumWorkers + 1);
  Threads.reserve(NumWorkers - 1);
  for (size_t W = 1; W < NumWorkers; ++W)
    Threads.emplace_back([this, W] { workerLoop(W); });
}

ShardParser::~ShardParser() {
  {
    std::lock_guard<std::mutex> G(Mu);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ShardParser::runBatch(Batch &B, size_t W) {
  for (;;) {
    const size_t T = B.Next.fetch_add(1, std::memory_order_relaxed);
    if (T >= B.NumTasks)
      return;
    (*B.Fn)(T, W);
    // Release pairs with the caller's acquire in runTasks: the shard's
    // output vectors are fully written before Done counts it.
    if (B.Done.fetch_add(1, std::memory_order_acq_rel) + 1 == B.NumTasks) {
      std::lock_guard<std::mutex> G(Mu);
      DoneCv.notify_all();
    }
  }
}

void ShardParser::workerLoop(size_t W) {
  std::shared_ptr<Batch> Seen;
  for (;;) {
    std::shared_ptr<Batch> B;
    {
      std::unique_lock<std::mutex> L(Mu);
      WorkCv.wait(L, [&] { return Stopping || Cur != Seen; });
      if (Stopping)
        return;
      Seen = Cur;
      B = Cur;
    }
    runBatch(*B, W);
  }
}

void ShardParser::runTasks(size_t NumTasks,
                           const std::function<void(size_t, size_t)> &Fn) {
  auto B = std::make_shared<Batch>();
  B->NumTasks = NumTasks;
  B->Fn = &Fn;
  {
    std::lock_guard<std::mutex> G(Mu);
    Cur = B;
  }
  WorkCv.notify_all();
  runBatch(*B, 0); // the caller is worker 0
  std::unique_lock<std::mutex> L(Mu);
  DoneCv.wait(L, [&] {
    return B->Done.load(std::memory_order_acquire) == B->NumTasks;
  });
}

//===--------------------------------------------------------------------===//
// Split planning
//===--------------------------------------------------------------------===//

std::vector<size_t> ShardParser::candidateSplits(std::string_view Input) const {
  std::vector<size_t> Out;
  const CompiledParser::SyncSpec &SS = M.SyncSpecs[Record];
  if (!SS.HasSync)
    return Out;
  for (size_t C = nextCandidate(M, Record, SS, Input, 1); C != Npos;
       C = nextCandidate(M, Record, SS, Input, C + 1))
    Out.push_back(C);
  return Out;
}

std::vector<size_t> ShardParser::planSplits(std::string_view Input,
                                            size_t Shards) const {
  std::vector<size_t> S{0};
  const CompiledParser::SyncSpec &SS = M.SyncSpecs[Record];
  if (!SS.HasSync || Shards <= 1)
    return S;
  const size_t Len = Input.size();
  for (size_t I = 1; I < Shards; ++I) {
    size_t Target = Len / Shards * I;
    if (Target <= S.back())
      Target = S.back() + 1;
    const size_t C = nextCandidate(M, Record, SS, Input, Target);
    if (C == Npos)
      break;
    if (C > S.back())
      S.push_back(C);
  }
  return S;
}

std::vector<ShardParser::Task>
ShardParser::makeTasks(std::string_view Input,
                       const std::vector<size_t> &Splits) const {
  const size_t Len = Input.size();
  // Sanitize: keep 0 as the first boundary, then strictly increasing
  // offsets below Len (anything else could only describe empty or
  // overlapping shards).
  std::vector<size_t> S{0};
  for (size_t Off : Splits)
    if (Off > S.back() && Off < Len)
      S.push_back(Off);
  std::vector<Task> Tasks(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    Tasks[I].Begin = S[I];
    Tasks[I].Limit = I + 1 < S.size() ? S[I + 1] : Len;
    if (Opts.MakeCtx)
      Tasks[I].Ctx = Opts.MakeCtx();
  }
  return Tasks;
}

//===--------------------------------------------------------------------===//
// Shard execution
//===--------------------------------------------------------------------===//

/// Runs one shard into its task. Re-used verbatim for re-runs on the
/// stitching thread.
void ShardParser::runOneTask(const ParseRequest &Req, std::string_view Input,
                             Task &T, ParseScratch &Sc) const {
  ParseRequest R = Req;
  if (T.Ctx)
    R.User = T.Ctx.get();
  T.Out = ParseOutcome();
  T.RR = M.runRecords(R, Input, T.Begin, T.Limit, Sc, T.Out);
}

void ShardParser::runShards(const ParseRequest &Req, std::string_view Input,
                            std::vector<Task> &Tasks) {
  // Fresh pools every call: results escaping the previous call must
  // never share a freelist with this call's workers (the single-owner
  // rule, cfe/Value.h). The stitcher arena included — re-run values
  // interleave with worker values in the returned vector.
  for (ParseScratch &S : Scratches)
    S.Pool = ValuePool::create();
  if (Tasks.size() == 1) {
    runOneTask(Req, Input, Tasks[0], Scratches[0]);
    return;
  }
  runTasks(Tasks.size(), [&](size_t T, size_t W) {
    Scratches[W].Pool->adoptOwner();
    runOneTask(Req, Input, Tasks[T], Scratches[W]);
  });
  // The join's acquire makes the workers' writes visible; from here the
  // calling thread owns every arena (and the values it will hand out).
  for (ParseScratch &S : Scratches)
    S.Pool->adoptOwner();
}

//===--------------------------------------------------------------------===//
// Stitching
//===--------------------------------------------------------------------===//

namespace {
size_t shardTarget(size_t Len, size_t Workers, size_t MinShardBytes) {
  const size_t ByLen = Len / std::max<size_t>(1, MinShardBytes);
  return std::min(Workers, std::max<size_t>(1, ByLen));
}
} // namespace

ShardOutcome ShardParser::run(const ParseRequest &Request,
                              std::string_view Input,
                              const std::vector<size_t> *Splits) {
  assert((Request.Entry == NoNt || Request.Entry == Record) &&
         "a shard parser parses its bound record nonterminal");
  ParseRequest Req = Request;
  Req.Entry = Record;
  std::vector<Task> Tasks = makeTasks(
      Input, Splits ? *Splits
                    : planSplits(Input, shardTarget(Input.size(), NumWorkers,
                                                    Opts.MinShardBytes)));
  ShardOutcome Out;
  Out.Stats.Shards = Tasks.size();
  runShards(Req, Input, Tasks);

  // A shard whose guessed boundary was wrong — or whose errors, added to
  // those stitched so far, reach the budget — re-runs on the stitching
  // thread from the true boundary with the budget that remains, which
  // makes its output exactly the sequential run's from there.
  const size_t MaxErrors = ErrorBudget(Req.MaxErrors).max();
  auto reRun = [&](Task &T, size_t Begin) {
    T.Begin = Begin;
    // The speculative run's context saw records from a wrong boundary
    // or past the stop; discard it with the rest of the shard's output.
    if (Opts.MakeCtx)
      T.Ctx = Opts.MakeCtx();
    ParseRequest Rest = Req;
    Rest.MaxErrors = MaxErrors - Out.Errors.size();
    runOneTask(Rest, Input, T, Scratches[NumWorkers]);
  };
  size_t NumValues = 0, NumEvents = 0;
  for (const Task &T : Tasks) {
    NumValues += T.Out.Values.size();
    NumEvents += T.Out.Events.size();
  }
  Out.Values.reserve(NumValues);
  Out.Events.reserve(NumEvents);
  // The record core counts Line/Col from each shard's Begin; one
  // monotone tracker restamps the stitched diagnostics (their offsets
  // never decrease), so each byte is scanned at most once more.
  LineTracker LT;
  size_t Expected = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    Task &T = Tasks[I];
    if (I && T.RR.First != Expected) {
      ++Out.Stats.Mispredicted;
      Out.Stats.ReparsedBytes += T.Limit > Expected ? T.Limit - Expected : 0;
      reRun(T, Expected);
    } else if (!Out.Errors.empty() &&
               Out.Errors.size() + T.Out.Errors.size() >= MaxErrors) {
      reRun(T, T.Begin);
    }
    if (Opts.MergeCtx && T.Ctx)
      Opts.MergeCtx(Req.User, T.Ctx.get());
    T.Ctx.reset();

    for (ParseDiagnostic &D : T.Out.Errors) {
      LT.locate(Input.data(), 0, D);
      Out.Errors.push_back(std::move(D));
    }
    // Events are flat records viewing Input: a block copy per shard.
    Out.Events.insert(Out.Events.end(), T.Out.Events.begin(),
                      T.Out.Events.end());
    for (Value &V : T.Out.Values)
      Out.Values.push_back(std::move(V));
    Out.Truncated |= T.Out.Truncated;
    Out.NumRecords += T.RR.NumRecords;
    // A Fatal diagnostic ends the parse; a run that consumed the input
    // leaves later shards nothing to parse.
    if (T.RR.S != RecordRun::Stop::AtLimit)
      break;
    Expected = T.RR.Next;
  }
  Out.Ok = Out.Errors.empty();
  if (!Out.Ok)
    Out.ErrMsg = Out.Errors[0].message();
  return Out;
}

ShardOutcome ShardParser::parseValues(std::string_view Input) {
  return run(ParseRequest(), Input);
}

ShardOutcome ShardParser::parseValuesAt(std::string_view Input,
                                        const std::vector<size_t> &Splits) {
  return run(ParseRequest(), Input, &Splits);
}

ShardOutcome ShardParser::recognize(std::string_view Input) {
  ParseRequest Req;
  Req.Mode = ParseMode::Recognize;
  return run(Req, Input);
}
