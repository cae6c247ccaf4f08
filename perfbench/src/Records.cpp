//===- perfbench/src/Records.cpp - The `records` workload ----------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded record-delimited corpora (NDJSON and csv, 5 MB each) parsed by
/// ShardParser: values (parseValues) and the NullSink contrast
/// (recognize). The same corpora also go through the sequential record
/// event driver (drained per MiB window) and a StreamParser at 4 KiB
/// chunks, the two ways a record stream is consumed without sharding.
/// This is the only workload that exercises shard planning, speculation
/// and stitching.
///
/// The end-to-end readings run the shard parser on one thread: on a shared
/// host the capacity behind two or nproc threads moves by several times
/// within minutes, which no run length steadies. The traced run adds the
/// two- and nproc-thread readings, where planning, speculation and
/// stitching do real work.
///
/// Oracle (outside timing): every sharded run's record count equals the
/// sequential run's (Splits = {}); streamed values equal the generator's
/// expected count; event and speculation counters repeat exactly.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/Pipeline.h"
#include "engine/Shard.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace perfbench;
using namespace flap;

namespace {

// Larger than a core's L2. At 20 MB a call took a quarter second and a
// 30 s run made 27 rounds; at 5 MB it makes about a hundred, so the
// fastest round (see fastest()) has four times the chances to meet a
// quiet host.
constexpr size_t RecordsBytes = 5'000'000;
constexpr size_t EventWindow = 1 << 20;
constexpr size_t StreamChunk = 4096;

/// A sharded configuration: its parser, call times and the speculation
/// counters every call must repeat.
struct Sharded {
  std::unique_ptr<ShardParser> SP;
  std::vector<double> TValues, TRecognize;
  ShardStats Stats;
  bool HaveStats = false;
};

struct RecGrammar {
  std::string Name;
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;
  NtId Rec = NoNt;
  Workload W;
  size_t NumRecords = 0; ///< the sequential run's record count
  size_t EventCount = 0;
  Sharded E2E, Seq, T2, TN;
  ParseScratch Scratch;
  std::vector<ParseEvent> Ev;
  std::vector<double> TEvents, TStream, TPlan;
};

std::unique_ptr<ShardParser> shardParser(const RecGrammar &G, size_t Threads) {
  ShardOptions O;
  O.Threads = Threads;
  return std::make_unique<ShardParser>(G.P.M, G.Rec, O);
}

/// The sequential record event driver over the whole corpus, one MiB
/// window at a time with the events drained after each window. Returns
/// the record count, or SIZE_MAX on a failure.
size_t eventsWindowed(RecGrammar &G, size_t &Events) {
  Span S(SpanKind::Events);
  const std::string_view In = G.W.Input;
  size_t Pos = 0, Records = 0;
  Events = 0;
  while (Pos < In.size()) {
    G.Ev.clear();
    RecordRun Run = G.P.M.parseEventsRecords(
        G.Rec, In, Pos, std::min(In.size(), Pos + EventWindow), G.Scratch,
        G.Ev);
    Events += G.Ev.size();
    Records += Run.NumRecords;
    if (Run.S == RecordRun::Stop::Error)
      return SIZE_MAX;
    if (Run.S == RecordRun::Stop::End)
      break;
    Pos = Run.Next;
  }
  return Records;
}

Result<Value> streamOnce(RecGrammar &G) {
  Span S(SpanKind::Stream);
  StreamParser SP = G.P.stream();
  const std::string_view In = G.W.Input;
  for (size_t Off = 0; Off < In.size(); Off += StreamChunk) {
    Span F(SpanKind::StreamFeed);
    if (SP.feed(In.substr(Off, StreamChunk)) == StreamStatus::Error)
      break;
  }
  {
    Span F(SpanKind::StreamFinish);
    SP.finish();
  }
  return SP.take();
}

double secsSince(int64_t T0) { return static_cast<double>(nowNs() - T0) / 1e9; }

} // namespace

void perfbench::runRecords(RunCtx &C) {
  Report &R = *C.R;
  const size_t N = std::max(1u, std::thread::hardware_concurrency());
  const size_t E2EThreads = 1;
  const size_t Bytes = static_cast<size_t>(
      static_cast<double>(RecordsBytes) * C.Scale);

  // Set-up: compile both record machines and spawn their shard parsers.
  // It runs once before the rounds (the set-up measured) and once more,
  // discarded, in every round; setup_s is the 10th percentile of them all
  // (see setupQuantile()).
  using GrammarSet = std::vector<std::unique_ptr<RecGrammar>>;
  std::vector<double> SetupS, CompileMs;
  auto setUp = [&](GrammarSet &Out) {
    Out.clear();
    double Ms = 0;
    const int64_t T0 = nowNs();
    for (const char *Name : {"json", "csv"}) {
      auto G = std::make_unique<RecGrammar>();
      G->Name = Name;
      G->Def = makeGrammar(Name);
      const int64_t C0 = nowNs();
      Result<FlapParser> P = [&] {
        Span S(SpanKind::CompileRecords);
        return compileFlapRecords(G->Def);
      }();
      Ms += static_cast<double>(nowNs() - C0) / 1e6;
      if (!P.ok()) {
        R.check(false, std::string("compileFlapRecords(") + Name +
                           "): " + P.error());
        return false;
      }
      G->P = P.take();
      G->Rec = recordEntry(G->P);
      G->E2E.SP = shardParser(*G, E2EThreads);
      Out.push_back(std::move(G));
    }
    SetupS.push_back(secsSince(T0));
    CompileMs.push_back(Ms);
    return true;
  };
  GrammarSet Gs;
  if (!setUp(Gs))
    return;

  auto checkRun = [&](RecGrammar &G, bool Ok, size_t Records,
                      const char *What) {
    R.checkWith(Ok && Records == G.NumRecords, [&] {
      return G.Name + ": " + What + " counted " + std::to_string(Records) +
             " records, sequential run " + std::to_string(G.NumRecords);
    });
  };
  auto timedValues = [&](RecGrammar &G, Sharded &S, bool Sequential) {
    const int64_t T0 = nowNs();
    ShardedValues V = [&] {
      Span Sp(SpanKind::ShardValues);
      return Sequential ? S.SP->parseValuesAt(G.W.Input, {})
                        : S.SP->parseValues(G.W.Input);
    }();
    S.TValues.push_back(secsSince(T0));
    checkRun(G, V.Ok && V.Values.size() == V.NumRecords, V.NumRecords,
             "parseValues");
    if (!S.HaveStats) {
      S.Stats = V.Stats;
      S.HaveStats = true;
    }
    R.check(V.Stats.Shards == S.Stats.Shards &&
                V.Stats.Mispredicted == S.Stats.Mispredicted &&
                V.Stats.ReparsedBytes == S.Stats.ReparsedBytes,
            G.Name + ": speculation counters do not repeat");
  };
  auto timedRecognize = [&](RecGrammar &G, Sharded &S) {
    const int64_t T0 = nowNs();
    ShardedRecognize Rc = [&] {
      Span Sp(SpanKind::ShardRecognize);
      return S.SP->recognize(G.W.Input);
    }();
    S.TRecognize.push_back(secsSince(T0));
    checkRun(G, Rc.Ok, Rc.NumRecords, "recognize");
  };

  size_t CorpusBytes = 0;
  for (auto &G : Gs) {
    G->W = genCorpus(G->Name, C.Seed, Bytes);
    CorpusBytes += G->W.Input.size();
    G->Seq.SP = shardParser(*G, 1);
    ShardedValues Ref = G->Seq.SP->parseValuesAt(G->W.Input, {});
    R.check(Ref.Ok, G->Name + ": sequential record run fails: " + Ref.ErrMsg);
    G->NumRecords = Ref.NumRecords;
    if (C.PerLayer) {
      G->T2.SP = shardParser(*G, std::min<size_t>(2, N));
      G->TN.SP = shardParser(*G, N);
    }
    // Warm-up, and the event count later rounds must repeat.
    checkRun(*G, true, eventsWindowed(*G, G->EventCount), "events warm-up");
    checkRun(*G, true, G->E2E.SP->parseValues(G->W.Input).NumRecords,
             "parseValues warm-up");
    checkRun(*G, true, G->E2E.SP->recognize(G->W.Input).NumRecords,
             "recognize warm-up");
  }
  R.CorpusBytes = static_cast<double>(CorpusBytes);

  const int64_t Deadline =
      nowNs() + static_cast<int64_t>(C.Seconds * 1e9);
  size_t Rounds = 0;
  while (Rounds < 3 || nowNs() < Deadline) {
    Span Round(SpanKind::Round);
    ++Rounds;
    for (auto &G : Gs) {
      timedValues(*G, G->E2E, false);
      timedRecognize(*G, G->E2E);

      size_t Events = 0;
      int64_t T0 = nowNs();
      const size_t Records = eventsWindowed(*G, Events);
      G->TEvents.push_back(secsSince(T0));
      checkRun(*G, Records != SIZE_MAX, Records, "parseEventsRecords");
      R.check(Events == G->EventCount,
              G->Name + ": record event count does not repeat");

      T0 = nowNs();
      Result<Value> SV = streamOnce(*G);
      G->TStream.push_back(secsSince(T0));
      R.checkWith(SV.ok() && *SV == G->W.Expected, [&] {
        return G->Name + ": streamed value " +
               (SV.ok() ? SV->str() : SV.error()) + " != expected " +
               G->W.Expected.str();
      });

      if (!C.PerLayer)
        continue;
      timedValues(*G, G->Seq, true);
      timedValues(*G, G->T2, false);
      timedValues(*G, G->TN, false);
      timedRecognize(*G, G->TN);
      T0 = nowNs();
      std::vector<size_t> Plan = [&] {
        Span S(SpanKind::ShardPlan);
        return G->TN.SP->planSplits(G->W.Input, N);
      }();
      G->TPlan.push_back(secsSince(T0));
      R.check(!Plan.empty() && Plan[0] == 0, G->Name + ": empty shard plan");
    }
    GrammarSet Sample;
    setUp(Sample);
  }

  std::vector<double> ValMbps, RecMbps, EvMbps, StMbps, LatUs;
  for (auto &G : Gs) {
    const double MB = static_cast<double>(G->W.Input.size()) / 1e6;
    auto mbps = [MB](const std::vector<double> &T) { return MB / fastest(T); };
    ValMbps.push_back(mbps(G->E2E.TValues));
    RecMbps.push_back(mbps(G->E2E.TRecognize));
    EvMbps.push_back(mbps(G->TEvents));
    StMbps.push_back(mbps(G->TStream));
    LatUs.push_back(fastest(G->E2E.TValues) * 1e6);
    std::printf("  %-4s %9zu B  %zu records  values %7.1f  recognize %7.1f  "
                "events %7.1f  stream %7.1f MB/s (%zu threads)\n",
                G->Name.c_str(), G->W.Input.size(), G->NumRecords,
                ValMbps.back(), RecMbps.back(), EvMbps.back(), StMbps.back(),
                E2EThreads);
    if (!C.PerLayer)
      continue;
    const std::string &Nm = G->Name;
    const double Seq = mbps(G->Seq.TValues), TN = mbps(G->TN.TValues);
    R.layer("shard.seq_mbps." + Nm, Seq, "MB/s");
    R.layer("shard.values_mbps.t1." + Nm, ValMbps.back(), "MB/s");
    R.layer("shard.values_mbps.t2." + Nm, mbps(G->T2.TValues), "MB/s");
    R.layer("shard.values_mbps.tN." + Nm, TN, "MB/s");
    R.layer("shard.speedup." + Nm, TN / Seq, "ratio");
    R.layer("shard.recognize_mbps.tN." + Nm, mbps(G->TN.TRecognize), "MB/s");
    R.layer("shard.plan_us." + Nm, fastest(G->TPlan) * 1e6, "us");
    R.layer("shard.mispredict_ratio." + Nm,
            static_cast<double>(G->TN.Stats.Mispredicted) /
                static_cast<double>(std::max<size_t>(1, G->TN.Stats.Shards)),
            "ratio");
    R.layer("shard.reparsed_bytes." + Nm,
            static_cast<double>(G->TN.Stats.ReparsedBytes), "bytes");
  }
  R.e2e("setup_s", setupQuantile(SetupS), "s");
  R.e2e("throughput_mbps", geomean(ValMbps), "MB/s");
  R.e2e("recognize_mbps", geomean(RecMbps), "MB/s");
  R.e2e("events_mbps", geomean(EvMbps), "MB/s");
  R.e2e("stream_mbps", geomean(StMbps), "MB/s");
  R.e2e("latency_us", geomean(LatUs), "us");
  if (C.PerLayer)
    R.layer("pipeline.compile_records_ms", median(CompileMs), "ms");
  std::printf("records: %zu rounds over %zu corpus bytes, %zu threads "
              "(nproc %zu)\n",
              Rounds, CorpusBytes, E2EThreads, N);
}
