//===- bench/ServeThroughput.cpp - Parallel shard + serving bench --------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Prices the parallel tier (engine/Shard.h, engine/Serve.h):
///
///   - *Shard scaling*: data-parallel record parsing of NDJSON and csv
///     corpora at 1/2/4/8 worker threads, MB/s and speedup against the
///     sequential record run of the same ShardParser (the Splits = {}
///     parse the stitched output is byte-identical to), plus the
///     misprediction counters — speculation quality is part of the
///     result, not a hidden variable.
///   - *Serving latency*: a ParseService under a closed loop (one
///     request in flight: pure round-trip latency, p50/p95/p99) and an
///     open burst (queue kept full: saturation throughput).
///
/// `--json[=path]` writes BENCH_parallel.json. Speedup is bounded by
/// physical cores: the recorded numbers are only meaningful together
/// with meta.cores, and bench/README.md describes the pinned-core
/// recording procedure (the ≥6×-at-8-threads expectation applies to
/// machines with ≥ 8 physical cores, not to a 1-core CI container).
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"
#include "engine/Serve.h"
#include "engine/Shard.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace flapbench;

namespace {

double pctOf(std::vector<double> &S, double Q) {
  const size_t At = static_cast<size_t>(Q * static_cast<double>(S.size() - 1));
  std::nth_element(S.begin(), S.begin() + At, S.end());
  return S[At];
}

std::string shardCorpus(const std::string &Name, size_t TargetBytes) {
  std::string S;
  S.reserve(TargetBytes + 128);
  size_t I = 0;
  while (S.size() < TargetBytes) {
    const unsigned A = static_cast<unsigned>(I++);
    char Buf[256];
    if (Name == "json")
      std::snprintf(Buf, sizeof(Buf),
                    "{\"id\": %u, \"name\": \"u%u\", \"tags\": [%u, %u, %u], "
                    "\"nested\": {\"s\": \"a}b]c\", \"ok\": true}}\n",
                    A, A, A % 7, A % 13, A % 29);
    else // csv
      std::snprintf(Buf, sizeof(Buf), "%u,\"x,y%u\",%u,z%u\r\n", A, A % 17,
                    A * 3, A % 11);
    S += Buf;
  }
  return S;
}

/// Best-of-reps MB/s for one configuration.
template <typename Fn> double mbps(size_t Bytes, int Reps, Fn &&Run) {
  double Best = 0;
  for (int R = 0; R < Reps; ++R) {
    Stopwatch W;
    Run();
    const double S = W.seconds();
    Best = std::max(Best, static_cast<double>(Bytes) / S / 1e6);
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      JsonPath = "BENCH_parallel.json";
    else if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else {
      std::fprintf(stderr, "usage: %s [--json[=path]]\n", argv[0]);
      return 2;
    }
  }
  const unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t ThreadSweep[] = {1, 2, 4, 8};

  FILE *F = nullptr;
  if (JsonPath) {
    F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"meta\": {\"cores\": %u, \"scale\": %.3f, "
                 "\"threads_swept\": [1, 2, 4, 8], \"shard_unit\": \"MB_s\", "
                 "\"latency_unit\": \"us_per_request\", \"note\": "
                 "\"speedup is bounded by meta.cores; see bench/README.md "
                 "for the pinned-core recording procedure\"},\n",
                 Cores, benchScale());
  }

  std::printf("Parallel tier on %u core(s). Shard scaling (MB/s):\n\n", Cores);
  std::printf("%-8s%12s%10s%10s%10s%10s%12s\n", "", "seq", "t1", "t2", "t4",
              "t8", "mispred");

  // ~8 MB per corpus at scale 1.0: large enough that one shard is tens
  // of milliseconds of parsing, far above the dispatch cost.
  const size_t CorpusBytes =
      std::max<size_t>(1 << 20, static_cast<size_t>(8e6 * benchScale()));
  bool First = true;
  if (F)
    std::fprintf(F, "  \"shard\": {\n");
  for (const char *Name : {"json", "csv"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    auto PR = compileFlapRecords(Def);
    if (!PR.ok()) {
      std::fprintf(stderr, "compile(%s): %s\n", Name, PR.error().c_str());
      return 1;
    }
    FlapParser P = PR.take();
    const NtId R = recordEntry(P);
    const std::string Corpus = shardCorpus(Name, CorpusBytes);

    // Validate + sequential baseline (the byte-identical reference).
    ShardOptions SeqO;
    SeqO.Threads = 1;
    ShardParser SeqSP(P.M, R, SeqO);
    ShardedValues Ref = SeqSP.parseValuesAt(Corpus, {});
    if (!Ref.Ok) {
      std::fprintf(stderr, "%s rejects its shard corpus: %s\n", Name,
                   Ref.ErrMsg.c_str());
      return 1;
    }
    const int Reps = 3;
    const double SeqMBs = mbps(Corpus.size(), Reps, [&] {
      ShardedValues V = SeqSP.parseValuesAt(Corpus, {});
      if (V.NumRecords != Ref.NumRecords)
        std::abort();
    });

    double TMBs[4] = {0, 0, 0, 0};
    size_t Mispred = 0, Shards = 0;
    for (int TI = 0; TI < 4; ++TI) {
      ShardOptions O;
      O.Threads = ThreadSweep[TI];
      ShardParser SP(P.M, R, O);
      TMBs[TI] = mbps(Corpus.size(), Reps, [&] {
        ShardedValues V = SP.parseValues(Corpus);
        if (V.NumRecords != Ref.NumRecords)
          std::abort();
        Mispred = V.Stats.Mispredicted;
        Shards = V.Stats.Shards;
      });
    }
    std::printf("%-8s%12.1f%10.1f%10.1f%10.1f%10.1f%9zu/%zu\n", Name, SeqMBs,
                TMBs[0], TMBs[1], TMBs[2], TMBs[3], Mispred, Shards);
    if (F) {
      std::fprintf(
          F,
          "%s    \"%s\": {\"bytes\": %zu, \"records\": %zu, \"seq_mbps\": "
          "%.1f,\n      \"threads\": {\"1\": {\"mbps\": %.1f, \"speedup\": "
          "%.2f}, \"2\": {\"mbps\": %.1f, \"speedup\": %.2f}, \"4\": "
          "{\"mbps\": %.1f, \"speedup\": %.2f}, \"8\": {\"mbps\": %.1f, "
          "\"speedup\": %.2f}},\n      \"last_shards\": %zu, "
          "\"last_mispredicted\": %zu}",
          First ? "" : ",\n", Name, Corpus.size(), Ref.NumRecords, SeqMBs,
          TMBs[0], TMBs[0] / SeqMBs, TMBs[1], TMBs[1] / SeqMBs, TMBs[2],
          TMBs[2] / SeqMBs, TMBs[3], TMBs[3] / SeqMBs, Shards, Mispred);
      First = false;
    }
  }
  if (F)
    std::fprintf(F, "\n  },\n");

  // Serving: request-sized json payloads, 16 docs per request.
  {
    auto Def = makeJsonGrammar();
    auto PR = compileFlap(Def);
    if (!PR.ok()) {
      std::fprintf(stderr, "compile(json): %s\n", PR.error().c_str());
      return 1;
    }
    FlapParser P = PR.take();
    std::vector<std::string> Docs;
    const size_t DocsPerReq = 16;
    for (size_t I = 0; I < DocsPerReq; ++I)
      Docs.push_back("{\"id\": " + std::to_string(I) +
                     ", \"tags\": [1, 2, 3], \"ok\": true}");
    std::vector<std::string_view> Views(Docs.begin(), Docs.end());

    ServeOptions O;
    O.Threads = Cores;
    ParseService S(P.M, P.M.Start, O);

    // Closed loop: one request in flight — pure submit→ready latency.
    const size_t LatReqs =
        std::max<size_t>(200, static_cast<size_t>(2000 * benchScale()));
    std::vector<double> LatUs;
    LatUs.reserve(LatReqs);
    for (size_t I = 0; I < LatReqs; ++I) {
      Stopwatch W;
      ServeReply Rep = S.submit(Views).get();
      LatUs.push_back(W.seconds() * 1e6);
      if (!Rep.Accepted || Rep.Recovered.size() != DocsPerReq)
        std::abort();
    }
    const double P50 = pctOf(LatUs, 0.50), P95 = pctOf(LatUs, 0.95),
                 P99 = pctOf(LatUs, 0.99);

    // Open burst: keep the queue full, measure saturation throughput.
    const size_t BurstReqs = LatReqs * 2;
    Stopwatch W;
    {
      std::vector<std::future<ServeReply>> Fs;
      Fs.reserve(BurstReqs);
      for (size_t I = 0; I < BurstReqs; ++I)
        Fs.push_back(S.submit(Views));
      for (auto &Fu : Fs)
        if (!Fu.get().Accepted)
          std::abort();
    }
    const double Secs = W.seconds();
    const double ReqS = static_cast<double>(BurstReqs) / Secs;
    const double DocS = ReqS * static_cast<double>(DocsPerReq);

    std::printf("\nServing (%u workers, %zu docs/request):\n", Cores,
                DocsPerReq);
    std::printf("  latency  p50 %.1f us   p95 %.1f us   p99 %.1f us\n", P50,
                P95, P99);
    std::printf("  burst    %.0f req/s  (%.0f docs/s)\n", ReqS, DocS);
    if (F)
      std::fprintf(F,
                   "  \"serve\": {\"workers\": %u, \"docs_per_request\": %zu, "
                   "\"closed_loop_requests\": %zu, \"latency_us\": {\"p50\": "
                   "%.1f, \"p95\": %.1f, \"p99\": %.1f},\n    "
                   "\"burst_requests\": %zu, \"throughput_req_s\": %.0f, "
                   "\"throughput_docs_s\": %.0f}\n",
                   Cores, DocsPerReq, LatReqs, P50, P95, P99, BurstReqs, ReqS,
                   DocS);
  }

  if (F) {
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("\nwrote %s\n", JsonPath);
  }
  return 0;
}
