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
/// The parse modes one shard task can run. An int in the private
/// signatures to keep the header free of implementation detail.
enum Mode : int { MValues = 0, MEvents, MRecognize, MRecover };

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

/// One shard's slice and its speculative output. Out-vectors are
/// per-task (not shared) so workers never contend and the stitcher can
/// discard a mispredicted shard wholesale.
struct ShardParser::Task {
  size_t Begin = 0; ///< guessed (or, shard 0, true) entry offset
  size_t Limit = 0; ///< next shard's guess; records may overrun it
  /// Per-shard action context (ShardOptions::MakeCtx); null when the
  /// shared Opts.User is in effect.
  std::shared_ptr<void> Ctx;
  RecordRun RR;
  std::vector<Value> Values;
  std::vector<ParseEvent> Events;
  std::vector<ParseDiagnostic> Errs;
  std::vector<RecordLogEntry> Log;

  void clearOut() {
    Values.clear();
    Events.clear();
    Errs.clear();
    Log.clear();
  }
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

/// Runs one shard in \p Mode into its task. Re-used verbatim for
/// mispredict repair on the stitching thread.
void ShardParser::runOneTask(int Mode, std::string_view Input, Task &T,
                             ParseScratch &Sc) const {
  T.clearOut();
  void *User = T.Ctx ? T.Ctx.get() : Opts.User;
  switch (Mode) {
  case MValues:
    T.RR = M.parseRecords(Record, Input, T.Begin, T.Limit, Sc, T.Values,
                          User);
    break;
  case MEvents:
    T.RR = M.parseEventsRecords(Record, Input, T.Begin, T.Limit, Sc, T.Events);
    break;
  case MRecognize:
    T.RR = M.recognizeRecords(Record, Input, T.Begin, T.Limit, Sc);
    break;
  case MRecover:
    T.RR = M.parseRecordsRecover(Record, Input, T.Begin, T.Limit, Sc, T.Values,
                                 T.Errs, T.Log, Opts.Recover, User);
    break;
  }
}

void ShardParser::runShards(int Mode, std::string_view Input,
                            std::vector<Task> &Tasks) {
  // Fresh pools every call: results escaping the previous call must
  // never share a freelist with this call's workers (the single-owner
  // rule, cfe/Value.h). The stitcher arena included — re-parse values
  // interleave with worker values in the returned vector.
  for (ParseScratch &S : Scratches)
    S.Pool = ValuePool::create();
  if (Tasks.size() == 1) {
    runOneTask(Mode, Input, Tasks[0], Scratches[0]);
    return;
  }
  runTasks(Tasks.size(), [&](size_t T, size_t W) {
    Scratches[W].Pool->adoptOwner();
    runOneTask(Mode, Input, Tasks[T], Scratches[W]);
  });
  // The join's acquire makes the workers' writes visible; from here the
  // calling thread owns every arena (and the values it will hand out).
  for (ParseScratch &S : Scratches)
    S.Pool->adoptOwner();
}

void ShardParser::reRun(int Mode, std::string_view Input, Task &T,
                        size_t TrueBegin, ShardStats &Stats) {
  ++Stats.Mispredicted;
  Stats.ReparsedBytes += T.Limit > TrueBegin ? T.Limit - TrueBegin : 0;
  T.Begin = TrueBegin;
  // The speculative run's context saw records from a wrong boundary;
  // discard it with the rest of the shard's output.
  if (Opts.MakeCtx)
    T.Ctx = Opts.MakeCtx();
  runOneTask(Mode, Input, T, Scratches[NumWorkers]);
}

void ShardParser::mergeTaskCtx(Task &T) {
  if (Opts.MergeCtx && T.Ctx)
    Opts.MergeCtx(Opts.User, T.Ctx.get());
  T.Ctx.reset();
}

//===--------------------------------------------------------------------===//
// Stitching
//===--------------------------------------------------------------------===//

ShardedValues ShardParser::parseValuesAt(std::string_view Input,
                                         const std::vector<size_t> &Splits) {
  std::vector<Task> Tasks = makeTasks(Input, Splits);
  ShardedValues Out;
  Out.Stats.Shards = Tasks.size();
  runShards(MValues, Input, Tasks);
  const size_t Len = Input.size();
  size_t Expected = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    Task &T = Tasks[I];
    if (I && T.RR.First != Expected)
      reRun(MValues, Input, T, Expected, Out.Stats);
    mergeTaskCtx(T);
    for (Value &V : T.Values)
      Out.Values.push_back(std::move(V));
    Out.NumRecords += T.RR.NumRecords;
    if (T.RR.S == RecordRun::Stop::Error) {
      Out.Ok = false;
      Out.ErrMsg = std::move(T.RR.ErrMsg);
      Out.ErrNt = T.RR.ErrNt;
      Out.ErrOff = T.RR.ErrOff;
      break; // the sequentially-first failure: later shards are moot
    }
    Expected = T.RR.S == RecordRun::Stop::End ? Len : T.RR.Next;
  }
  return Out;
}

ShardedEvents ShardParser::parseEventsAt(std::string_view Input,
                                         const std::vector<size_t> &Splits) {
  std::vector<Task> Tasks = makeTasks(Input, Splits);
  ShardedEvents Out;
  Out.Stats.Shards = Tasks.size();
  runShards(MEvents, Input, Tasks);
  // Events are flat records viewing Input, so the stitch is one
  // reservation plus a block copy per shard.
  size_t Total = 0;
  for (const Task &T : Tasks)
    Total += T.Events.size();
  Out.Events.reserve(Total);
  const size_t Len = Input.size();
  size_t Expected = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    Task &T = Tasks[I];
    if (I && T.RR.First != Expected)
      reRun(MEvents, Input, T, Expected, Out.Stats);
    Out.Events.insert(Out.Events.end(), T.Events.begin(), T.Events.end());
    Out.NumRecords += T.RR.NumRecords;
    if (T.RR.S == RecordRun::Stop::Error) {
      Out.Ok = false;
      Out.ErrMsg = std::move(T.RR.ErrMsg);
      Out.ErrNt = T.RR.ErrNt;
      Out.ErrOff = T.RR.ErrOff;
      break;
    }
    Expected = T.RR.S == RecordRun::Stop::End ? Len : T.RR.Next;
  }
  return Out;
}

ShardedRecognize ShardParser::recognizeAt(std::string_view Input,
                                          const std::vector<size_t> &Splits) {
  std::vector<Task> Tasks = makeTasks(Input, Splits);
  ShardedRecognize Out;
  Out.Stats.Shards = Tasks.size();
  runShards(MRecognize, Input, Tasks);
  const size_t Len = Input.size();
  size_t Expected = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    Task &T = Tasks[I];
    if (I && T.RR.First != Expected)
      reRun(MRecognize, Input, T, Expected, Out.Stats);
    Out.NumRecords += T.RR.NumRecords;
    if (T.RR.S == RecordRun::Stop::Error) {
      Out.Ok = false;
      Out.ErrNt = T.RR.ErrNt;
      Out.ErrOff = T.RR.ErrOff;
      break;
    }
    Expected = T.RR.S == RecordRun::Stop::End ? Len : T.RR.Next;
  }
  return Out;
}

ShardedRecover ShardParser::parseRecoverAt(std::string_view Input,
                                           const std::vector<size_t> &Splits) {
  std::vector<Task> Tasks = makeTasks(Input, Splits);
  ShardedRecover Out;
  Out.Stats.Shards = Tasks.size();
  runShards(MRecover, Input, Tasks);

  // Replay the per-shard logs in input order, re-applying the GLOBAL
  // MaxErrors budget (each shard counted only its own errors; whenever
  // a shard's local breaker fired, the global count had already reached
  // the limit too, so the stop point is the sequential one). Line/Col
  // fill happens here, in one monotone LineTracker pass — diagnostics
  // surviving the stitch have nondecreasing offsets.
  const CompiledParser::SyncSpec &SS = M.SyncSpecs[Record];
  const size_t MaxErrors = Opts.Recover.MaxErrors ? Opts.Recover.MaxErrors : 1;
  const size_t Len = Input.size();
  LineTracker LT;
  auto fillLineCol = [&](ParseDiagnostic &D) {
    if (D.Off >= LT.ScannedTo)
      LT.advance(Input.data() + LT.ScannedTo,
                 static_cast<size_t>(D.Off) - LT.ScannedTo);
    D.Line = LT.Line;
    D.Col = LT.colAt(D.Off);
  };
  size_t Expected = 0;
  bool Stopped = false;
  for (size_t I = 0; I < Tasks.size() && !Stopped; ++I) {
    Task &T = Tasks[I];
    if (I && T.RR.First != Expected)
      reRun(MRecover, Input, T, Expected, Out.Stats);
    mergeTaskCtx(T);
    size_t VI = 0, EI = 0;
    for (RecordLogEntry E : T.Log) {
      if (E == RecordLogEntry::Value) {
        Out.R.Values.push_back(std::move(T.Values[VI++]));
        ++Out.NumRecords;
        continue;
      }
      ParseDiagnostic D = std::move(T.Errs[EI++]);
      const bool CountStop = Out.R.Errors.size() + 1 >= MaxErrors;
      if (CountStop || !SS.HasSync) {
        D.Act = ParseDiagnostic::Action::Fatal;
        D.ResumeOff = D.Off;
        Out.R.Truncated = CountStop;
        fillLineCol(D);
        Out.R.Errors.push_back(std::move(D));
        Stopped = true;
        break;
      }
      fillLineCol(D);
      const bool AtEof = D.Act == ParseDiagnostic::Action::SkipToEnd;
      Out.R.Errors.push_back(std::move(D));
      if (AtEof) {
        Stopped = true;
        break;
      }
    }
    if (Stopped)
      break;
    if (T.RR.S == RecordRun::Stop::Error) {
      // Only the zero-progress (nullable record) grammar-shape error
      // reaches here without a logged Fatal diagnostic; surface it as
      // one so the result is never silently short.
      ParseDiagnostic D;
      D.K = ParseDiagnostic::Kind::Parse;
      D.Act = ParseDiagnostic::Action::Fatal;
      D.Nt = T.RR.ErrNt;
      D.Off = T.RR.ErrOff;
      D.ResumeOff = T.RR.ErrOff;
      D.Expected = M.NtExpected[T.RR.ErrNt];
      D.Where = M.NtNames[T.RR.ErrNt];
      fillLineCol(D);
      Out.R.Errors.push_back(std::move(D));
      Out.R.Truncated |= T.RR.Truncated;
      break;
    }
    Expected = T.RR.S == RecordRun::Stop::End ? Len : T.RR.Next;
  }
  return Out;
}

//===--------------------------------------------------------------------===//
// Planned entry points
//===--------------------------------------------------------------------===//

namespace {
size_t shardTarget(size_t Len, size_t Workers, size_t MinShardBytes) {
  const size_t ByLen = Len / std::max<size_t>(1, MinShardBytes);
  return std::min(Workers, std::max<size_t>(1, ByLen));
}
} // namespace

ShardedValues ShardParser::parseValues(std::string_view Input) {
  return parseValuesAt(
      Input,
      planSplits(Input,
                 shardTarget(Input.size(), NumWorkers, Opts.MinShardBytes)));
}

ShardedEvents ShardParser::parseEvents(std::string_view Input) {
  return parseEventsAt(
      Input,
      planSplits(Input,
                 shardTarget(Input.size(), NumWorkers, Opts.MinShardBytes)));
}

ShardedRecognize ShardParser::recognize(std::string_view Input) {
  return recognizeAt(
      Input,
      planSplits(Input,
                 shardTarget(Input.size(), NumWorkers, Opts.MinShardBytes)));
}

ShardedRecover ShardParser::parseRecover(std::string_view Input) {
  return parseRecoverAt(
      Input,
      planSplits(Input,
                 shardTarget(Input.size(), NumWorkers, Opts.MinShardBytes)));
}
