//===- perfbench/src/Requests.cpp - The `requests` workload --------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded json request payloads served by a ParseService in Recover mode
/// with nproc / 2 workers. Payloads are heavy-tailed from 40 B to 4 KiB,
/// 16 per request, and about 2% are malformed. The load is a closed loop:
/// the calling thread keeps a fixed window of 2 × workers requests
/// outstanding, waits on the oldest, checks its reply, and submits the
/// next. Set-up loads a .flapart written during untimed preparation
/// (trusted load), installs it in a GrammarRegistry and spawns the
/// service. The same payloads also go through direct single-document
/// calls on the calling thread (recognize, parseEvents, a StreamParser
/// reset per document), the per-call costs a serving path pays.
///
/// Documents are small and stay in cache, so per-call set-up, queueing,
/// pool checkout and recovery dominate; the per-byte scan barely matters.
///
/// Oracle (outside timing): each clean document yields exactly one value,
/// its generated object count, and no diagnostic; each malformed one
/// yields exactly one diagnostic, at the injected byte, and no value.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/Artifact.h"
#include "engine/Pipeline.h"
#include "engine/Serve.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <thread>

using namespace perfbench;
using namespace flap;

namespace {

constexpr size_t DocsPerRequest = 16;
constexpr size_t NumRequests = 512;
constexpr size_t MinDoc = 40, MaxDoc = 4096;

struct Doc {
  std::string Text;
  int64_t Objects = 0; ///< the expected value of a clean document
  bool Bad = false;
  size_t BadOff = 0; ///< the injected byte of a malformed document
};

void appendString(Rng &R, std::string &Out) {
  Out += '"';
  const size_t Len = 1 + R.below(10);
  for (size_t I = 0; I < Len; ++I)
    Out += static_cast<char>('a' + R.below(26));
  Out += '"';
}

/// One json object of roughly \p Target bytes (never above MaxDoc),
/// counting every object it contains.
Doc makeDoc(Rng &R, size_t Target) {
  Doc D;
  D.Text = "{\"id\": " + std::to_string(R.below(1000000));
  D.Objects = 1;
  while (D.Text.size() + 2 < Target) {
    std::string F = ", ";
    appendString(R, F);
    F += ": ";
    const uint64_t Kind = R.below(4);
    switch (Kind) {
    case 0:
      F += std::to_string(R.range(-5000, 5000));
      break;
    case 1:
      appendString(R, F);
      break;
    case 2:
      F += "[1, 2.5, true, null]";
      break;
    default:
      F += "{\"k\": ";
      appendString(R, F);
      F += "}";
      break;
    }
    if (D.Text.size() + F.size() + 1 > MaxDoc)
      break;
    D.Text += F;
    D.Objects += Kind == 3;
  }
  D.Text += '}';
  return D;
}

/// Heavy-tailed size in [MinDoc, MaxDoc] at quantile \p U: log-uniform
/// skewed toward the small end, so most requests carry small documents and
/// a few carry documents near the 4 KiB cap.
size_t docSize(double U) {
  const double S = static_cast<double>(MinDoc) *
                   std::exp(U * U * U * std::log(double(MaxDoc) / MinDoc));
  return std::min(MaxDoc, std::max(MinDoc, static_cast<size_t>(S)));
}

double usSince(int64_t T0) { return static_cast<double>(nowNs() - T0) / 1e3; }

} // namespace

void perfbench::runRequests(RunCtx &C) {
  Report &R = *C.R;
  // Half the cores serve, not nproc - 1: on a shared host the capacity
  // behind nproc threads moves by several times within minutes (see
  // Records.cpp), and the generator needs a core of its own.
  const size_t Workers = std::max(1u, std::thread::hardware_concurrency() / 2);
  const size_t Window = 2 * Workers;
  const size_t NumReqs = std::max<size_t>(
      32, static_cast<size_t>(static_cast<double>(NumRequests) * C.Scale));

  // Untimed preparation: payloads and the artifact.
  Rng Gen(C.Seed);
  std::vector<Doc> Docs;
  size_t PayloadBytes = 0, Malformed = 0;
  // Stratified sizes: one per quantile band of the distribution, in a
  // seeded order. The few near-cap documents carry most of the bytes, so
  // drawing each size independently would move the byte mix, and with it
  // every per-byte rate, from seed to seed.
  const size_t NumDocs = NumReqs * DocsPerRequest;
  std::vector<size_t> Sizes(NumDocs);
  for (size_t I = 0; I < NumDocs; ++I)
    Sizes[I] = docSize((static_cast<double>(I) + Gen.unit()) /
                       static_cast<double>(NumDocs));
  for (size_t I = NumDocs; I > 1; --I)
    std::swap(Sizes[I - 1], Sizes[Gen.below(I)]);
  for (size_t I = 0; I < NumDocs; ++I) {
    Doc D = makeDoc(Gen, Sizes[I]);
    if (Gen.chance(1, 50)) {
      D.Bad = true;
      D.BadOff = D.Text.size() - 1; // the closing brace becomes '@'
      D.Text[D.BadOff] = '@';
      ++Malformed;
    }
    PayloadBytes += D.Text.size();
    Docs.push_back(std::move(D));
  }
  R.CorpusBytes = static_cast<double>(PayloadBytes);
  std::vector<std::vector<std::string_view>> Reqs(NumReqs);
  for (size_t I = 0; I < Docs.size(); ++I)
    Reqs[I / DocsPerRequest].push_back(Docs[I].Text);

  std::shared_ptr<GrammarDef> Def = makeGrammar("json");
  {
    Result<FlapParser> P = compileFlap(Def);
    if (!P.ok()) {
      R.check(false, "compileFlap(json): " + P.error());
      return;
    }
    Status W = writeArtifact(*P, C.WorkDir + "/requests-json.flapart");
    if (!W.ok()) {
      R.check(false, "writeArtifact: " + W.error());
      return;
    }
  }
  const std::string ArtPath = C.WorkDir + "/requests-json.flapart";
  const ActionTable &Actions = Def->L->Actions;

  // Set-up: trusted load, install into a fresh registry, service spawn.
  // It runs once before the rounds (the service served) and once more,
  // torn down again, in every round; setup_s is the 10th percentile of
  // them all (see setupQuantile()).
  struct Served {
    std::unique_ptr<GrammarRegistry> Reg;
    std::unique_ptr<ParseService> Svc; ///< borrows Reg, so declared after
  };
  std::vector<double> SetupS, LoadUs, InstallUs, SpawnUs, AuditUs;
  ServeOptions SO;
  SO.Threads = Workers;
  SO.Recover = true;
  auto setUp = [&](Served &Out) {
    Out.Svc.reset();
    Out.Reg = std::make_unique<GrammarRegistry>();
    const int64_t T0 = nowNs();
    Result<LoadedArtifact> A = [&] {
      Span S(SpanKind::ArtifactLoad);
      LoadOptions LO;
      LO.Trusted = true;
      return loadArtifact(ArtPath, Actions, LO);
    }();
    if (!A.ok()) {
      R.check(false, "trusted loadArtifact: " + A.error());
      return false;
    }
    const int64_t T1 = nowNs();
    {
      Span S(SpanKind::RegistryInstall);
      Out.Reg->install("json", A->M, A->M.Start, A->keepAlive());
    }
    const int64_t T2 = nowNs();
    {
      Span S(SpanKind::ServeSpawn);
      Out.Svc = std::make_unique<ParseService>(*Out.Reg, "json", SO);
    }
    const int64_t T3 = nowNs();
    SetupS.push_back(static_cast<double>(T3 - T0) / 1e9);
    LoadUs.push_back(static_cast<double>(T1 - T0) / 1e3);
    InstallUs.push_back(static_cast<double>(T2 - T1) / 1e3);
    SpawnUs.push_back(static_cast<double>(T3 - T2) / 1e3);
    return true;
  };
  Served Main;
  if (!setUp(Main))
    return;
  for (int Rep = 0; C.PerLayer && Rep < 7; ++Rep) {
    const int64_t U0 = nowNs();
    Result<LoadedArtifact> U = [&] {
      Span S(SpanKind::ArtifactAuditLoad);
      return loadArtifact(ArtPath, Actions);
    }();
    AuditUs.push_back(usSince(U0));
    R.check(U.ok(), "audited loadArtifact: " +
                        (U.ok() ? std::string() : U.error()));
  }
  ParseService *Svc = Main.Svc.get();

  // The machine the direct calls use: the generation being served.
  std::shared_ptr<const GrammarGeneration> Gen0 = Main.Reg->current("json");
  const CompiledParser &M = Gen0->M;
  const NtId Start = Gen0->Start;

  auto checkRecovered = [&](const Doc &D, const RecoveredParse &RP) {
    const bool Ok = D.Bad ? RP.Values.empty() && RP.Errors.size() == 1 &&
                                RP.Errors[0].Off == D.BadOff
                          : RP.Errors.empty() && RP.Values.size() == 1 &&
                                RP.Values[0] == Value::integer(D.Objects);
    R.checkWith(Ok, [&] {
      std::string S = std::string(D.Bad ? "malformed" : "clean") +
                      " doc: " + std::to_string(RP.Errors.size()) +
                      " diagnostics, " + std::to_string(RP.Values.size()) +
                      " values";
      if (!RP.Errors.empty())
        S += ", first diagnostic at " + std::to_string(RP.Errors[0].Off);
      if (!RP.Values.empty())
        S += ", first value " + RP.Values[0].str();
      return S + (D.Bad ? ", injected at " + std::to_string(D.BadOff)
                        : ", expected " + std::to_string(D.Objects));
    });
  };

  // Warm-up: one request per worker slot, checked.
  for (size_t I = 0; I < Window; ++I) {
    ServeReply Rep = Svc->submit(Reqs[I % NumReqs]).get();
    R.check(Rep.Accepted, "warm-up request rejected");
  }

  // Latency samples live for one round; the run keeps per-round
  // quantiles, so memory does not grow with the request rate.
  std::vector<double> LatUs, SubmitUs, RoundP50, RoundP99, RoundSubmit;
  std::vector<double> RoundMbps, RoundDocsPerS;
  size_t Observed = 0;
  std::vector<double> TRec, TEv, TStream, TOneshot, TBatch, TBatchRec;
  size_t Rejected = 0, Diagnostics = 0, DiagnosticsRef = SIZE_MAX;
  uint64_t NextId = 1, Cursor = 0;
  ParseScratch Scratch;
  std::vector<ParseEvent> Ev;
  StreamParser SP(M);

  struct Pending {
    std::future<ServeReply> F;
    int64_t Begin = 0, SubmitEnd = 0;
    size_t Req = 0;
    uint64_t Id = 0;
  };

  const double LoopShare = 0.6; // of each round, closed loop vs direct
  const int64_t Begin = nowNs();
  const int64_t Deadline = Begin + static_cast<int64_t>(C.Seconds * 1e9);
  const int64_t Slice = static_cast<int64_t>(
      std::min(0.5, C.Seconds / 6) * LoopShare * 1e9);
  size_t Rounds = 0;
  while (Rounds < 3 || nowNs() < Deadline) {
    ++Rounds;
    {
      Served Sample; // torn down outside the timed set-up
      setUp(Sample);
    }
    // Closed loop for one slice.
    LatUs.clear();
    SubmitUs.clear();
    std::deque<Pending> Q;
    size_t Bytes = 0, Done = 0;
    const int64_t L0 = nowNs();
    auto completeOldest = [&] {
      Pending P = std::move(Q.front());
      Q.pop_front();
      ServeReply Rep = P.F.get();
      const int64_t End = nowNs();
      LatUs.push_back(static_cast<double>(End - P.Begin) / 1e3);
      const int64_t Root = Tracer::record(SpanKind::ServeRequest, P.Begin, End,
                                          P.Id);
      Tracer::record(SpanKind::ServeSubmit, P.Begin, P.SubmitEnd, P.Id, Root);
      if (!Rep.Accepted) {
        ++Rejected;
        R.check(false, "request rejected");
        return;
      }
      R.check(Rep.Recovered.size() == DocsPerRequest,
              "reply carries the wrong number of results");
      for (size_t K = 0; K < Rep.Recovered.size(); ++K) {
        const Doc &D = Docs[P.Req * DocsPerRequest + K];
        checkRecovered(D, Rep.Recovered[K]);
        Bytes += D.Text.size();
      }
      ++Done;
    };
    while (nowNs() - L0 < Slice) {
      Pending P;
      P.Req = Cursor++ % NumReqs;
      P.Id = NextId++;
      P.Begin = nowNs();
      P.F = Svc->submit(Reqs[P.Req]);
      P.SubmitEnd = nowNs();
      SubmitUs.push_back(static_cast<double>(P.SubmitEnd - P.Begin) / 1e3);
      Q.push_back(std::move(P));
      if (Q.size() == Window)
        completeOldest();
    }
    while (!Q.empty())
      completeOldest();
    const double LoopS = static_cast<double>(nowNs() - L0) / 1e9;
    RoundMbps.push_back(static_cast<double>(Bytes) / 1e6 / LoopS);
    RoundDocsPerS.push_back(static_cast<double>(Done * DocsPerRequest) /
                            LoopS);
    RoundP50.push_back(median(LatUs));
    RoundP99.push_back(quantile(LatUs, 0.99));
    RoundSubmit.push_back(median(SubmitUs));
    Observed += LatUs.size();

    // Direct single-document calls on this thread, one sweep each.
    Span Round(SpanKind::Round);
    int64_t T0 = nowNs();
    for (const Doc &D : Docs) {
      Span S(SpanKind::Recognize);
      const bool Ok = M.recognize(D.Text, Scratch);
      R.check(Ok == !D.Bad, "recognize disagrees with the payload oracle");
    }
    TRec.push_back(static_cast<double>(nowNs() - T0) / 1e9);

    T0 = nowNs();
    for (const Doc &D : Docs) {
      Ev.clear();
      Span S(SpanKind::Events);
      const bool Ok = M.parseEvents(Start, D.Text, Scratch, Ev).ok();
      R.check(Ok == !D.Bad, "parseEvents disagrees with the payload oracle");
    }
    TEv.push_back(static_cast<double>(nowNs() - T0) / 1e9);

    T0 = nowNs();
    for (const Doc &D : Docs) {
      Span S(SpanKind::Stream);
      SP.reset();
      SP.feed(D.Text);
      SP.finish();
      Result<Value> V = SP.take();
      R.check(D.Bad ? !V.ok() : V.ok() && *V == Value::integer(D.Objects),
              "streamed doc disagrees with the payload oracle");
    }
    TStream.push_back(static_cast<double>(nowNs() - T0) / 1e9);

    if (!C.PerLayer)
      continue;
    T0 = nowNs();
    for (const Doc &D : Docs) {
      Span S(SpanKind::Parse);
      const bool Ok = M.parseFrom(Start, D.Text).ok();
      R.check(Ok == !D.Bad, "one-shot parse disagrees with the oracle");
    }
    TOneshot.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    T0 = nowNs();
    for (const auto &Q : Reqs) {
      Span S(SpanKind::Batch);
      std::vector<Result<Value>> Out = M.parseBatch(Start, Q, Scratch);
      R.check(Out.size() == Q.size(), "parseBatch result count");
    }
    TBatch.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    Diagnostics = 0;
    T0 = nowNs();
    for (size_t I = 0; I < Reqs.size(); ++I) {
      std::vector<RecoveredParse> Out = [&] {
        Span S(SpanKind::BatchRecover);
        return M.parseBatchRecover(Start, Reqs[I], Scratch);
      }();
      for (size_t K = 0; K < Out.size(); ++K) {
        checkRecovered(Docs[I * DocsPerRequest + K], Out[K]);
        Diagnostics += Out[K].Errors.size();
      }
    }
    TBatchRec.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    if (DiagnosticsRef == SIZE_MAX)
      DiagnosticsRef = Diagnostics;
    R.check(Diagnostics == DiagnosticsRef,
            "recovery diagnostic count does not repeat");
  }
  Svc->shutdown();

  R.e2e("setup_s", setupQuantile(SetupS), "s");
  const double MB = static_cast<double>(PayloadBytes) / 1e6;
  const double NDocs = static_cast<double>(Docs.size());
  // The closed loop's best round, as the direct calls' fastest sweep.
  auto highest = [](const std::vector<double> &S) {
    return *std::max_element(S.begin(), S.end());
  };
  const double BestP50 = fastest(RoundP50);
  R.e2e("throughput_mbps", highest(RoundMbps), "MB/s");
  R.e2e("recognize_mbps", MB / fastest(TRec), "MB/s");
  R.e2e("events_mbps", MB / fastest(TEv), "MB/s");
  R.e2e("stream_mbps", MB / fastest(TStream), "MB/s");
  R.e2e("latency_us", BestP50, "us");
  if (C.PerLayer) {
    const double BatchRecNs = fastest(TBatchRec) * 1e9 / NDocs;
    R.layer("artifact.trusted_load_us", median(LoadUs), "us");
    R.layer("artifact.audit_load_us", median(AuditUs), "us");
    R.layer("registry.install_us", median(InstallUs), "us");
    R.layer("serve.spawn_us", median(SpawnUs), "us");
    R.layer("engine.oneshot_ns_per_doc", fastest(TOneshot) * 1e9 / NDocs,
            "ns");
    R.layer("engine.batch_ns_per_doc", fastest(TBatch) * 1e9 / NDocs, "ns");
    R.layer("engine.batch_recover_ns_per_doc", BatchRecNs, "ns");
    R.layer("serve.submit_wait_us", median(RoundSubmit), "us");
    R.layer("serve.queue_overhead_us",
            BestP50 - BatchRecNs * DocsPerRequest / 1e3, "us");
    R.layer("serve.p99_us", median(RoundP99), "us");
    R.layer("serve.docs_per_s", highest(RoundDocsPerS), "1/s");
    R.layer("serve.rejected", static_cast<double>(Rejected), "count");
    R.layer("recover.diagnostics", static_cast<double>(DiagnosticsRef),
            "count");
    R.check(DiagnosticsRef == Malformed,
            "recovery diagnostics differ from the injected count");
  }
  std::printf("requests: %zu rounds, %zu requests observed, %zu workers, "
              "window %zu, %zu payload docs (%zu malformed)\n",
              Rounds, Observed, Workers, Window, Docs.size(), Malformed);
}
