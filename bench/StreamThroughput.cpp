//===- bench/StreamThroughput.cpp - Chunked streaming throughput --------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Prices the push-style streaming front end (engine/Stream.h) against a
/// whole-buffer parse of the same corpus: bytes/sec per grammar for
/// chunk sizes 64 B (syscall-sized socket reads), 4 KiB (page-sized) and
/// 64 KiB (jumbo reads), plus the carry-buffer high-water mark — the
/// streaming memory footprint that replaces whole-document buffering.
/// Before timing, each chunk size's streamed value is compared with the
/// whole-buffer value; a difference fails the bench (exit 1).
/// An events panel prices the SAX path on the same corpus: whole-buffer
/// parseEvents into a reused vector (`events_whole`) and event-mode
/// streaming at 4 KiB chunks, drained after every feed
/// (`events_chunk4k`). Events are counted through auto-typed drains, so
/// this file builds against any tree with the event API, whatever its
/// event and batch types.
///
/// `--json[=path]` writes BENCH_stream.json so PRs touching the
/// streaming path record a trajectory (see bench/README.md).
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"
#include "engine/Stream.h"

#include <cstdio>
#include <cstring>

using namespace flapbench;

int main(int argc, char **argv) {
  const char *JsonPath = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      JsonPath = "BENCH_stream.json";
    else if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else {
      std::fprintf(stderr, "usage: %s [--json[=path]]\n", argv[0]);
      return 2;
    }
  }

  const size_t Bytes = static_cast<size_t>(3'000'000 * benchScale());
  const size_t Chunks[] = {64, 4096, 65536};
  std::printf("Streaming throughput (MB/s): StreamParser fed fixed-size "
              "chunks vs whole-buffer parse;\ncorpus ~%.1f MB per grammar "
              "(synthetic, seed 1). carry = high-water bytes held across "
              "chunks.\n\n",
              Bytes / 1e6);
  std::printf("%-8s%10s%10s%10s%10s%12s%10s%10s%8s\n", "", "whole", "64B",
              "4KB", "64KB", "carry(4KB)", "ev.whole", "ev.4KB",
              "ev/val");

  FILE *F = nullptr;
  if (JsonPath) {
    F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"meta\": {\"corpus_bytes\": %zu, \"scale\": %.3f, "
                 "\"unit\": \"bytes_per_sec\", \"chunks\": [64, 4096, "
                 "65536]},\n",
                 Bytes, benchScale());
  }

  bool FirstRow = true;
  for (const std::string &Gr : fig11Order()) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Gr)
        Def = G;
    auto PR = compileFlap(Def);
    if (!PR.ok()) {
      std::fprintf(stderr, "compile(%s): %s\n", Gr.c_str(),
                   PR.error().c_str());
      return 1;
    }
    FlapParser P = PR.take();
    Workload W = genWorkload(Gr, 1, Bytes);

    ParseScratch Scratch;
    auto NewCtx = [&] {
      return Def->NewCtx ? Def->NewCtx() : std::shared_ptr<void>();
    };
    // Value drift fails the bench as event-count drift does: at every
    // chunk size the streamed value must equal the whole-buffer value
    // (Value::operator==). Checked once, outside the timed loops.
    {
      auto Ctx = NewCtx();
      Result<Value> WholeV = P.M.parse(W.Input, Scratch, Ctx.get());
      for (size_t Chunk : Chunks) {
        auto SCtx = NewCtx();
        StreamParser SP = P.stream(SCtx.get());
        const std::string_view In = W.Input;
        for (size_t At = 0; At < In.size(); At += Chunk)
          SP.feed(In.substr(At, Chunk));
        SP.finish();
        Result<Value> V = SP.take();
        if (!WholeV.ok() || !V.ok() || !(*V == *WholeV)) {
          std::fprintf(stderr,
                       "%s: the value streamed at %zu-byte chunks differs "
                       "from the whole-buffer value\n",
                       Gr.c_str(), Chunk);
          return 1;
        }
      }
    }
    NamedEngine Whole{"whole", [&](std::string_view In) {
                        auto Ctx = NewCtx();
                        return P.M.parse(In, Scratch, Ctx.get()).ok();
                      }};
    double WholeMBs = throughputMBs(Whole, W.Input);

    double StreamMBs[3] = {0, 0, 0};
    size_t Carry4K = 0;
    for (int C = 0; C < 3; ++C) {
      size_t Chunk = Chunks[C];
      size_t CarryHW = 0;
      NamedEngine Eng{"stream", [&](std::string_view In) {
                        auto Ctx = NewCtx();
                        StreamParser SP = P.stream(Ctx.get());
                        for (size_t At = 0; At < In.size(); At += Chunk)
                          if (SP.feed(In.substr(At, Chunk)) ==
                              StreamStatus::Error)
                            return false;
                        bool Ok = SP.finish() == StreamStatus::Done;
                        if (SP.carryHighWater() > CarryHW)
                          CarryHW = SP.carryHighWater();
                        return Ok;
                      }};
      StreamMBs[C] = throughputMBs(Eng, W.Input);
      if (Chunk == 4096)
        Carry4K = CarryHW;
    }

    // Events panel. Both engines check the event count against the
    // first whole-buffer run, so a drifting stream aborts the bench.
    size_t EventCount = 0;
    std::vector<ParseEvent> Events;
    NamedEngine EvWhole{"events_whole", [&](std::string_view In) {
                          Events.clear();
                          bool Ok = P.M.parseEvents(P.M.Start, In, Scratch,
                                                    Events)
                                        .ok();
                          if (!EventCount)
                            EventCount = Events.size();
                          return Ok && Events.size() == EventCount;
                        }};
    const double EvWholeMBs = throughputMBs(EvWhole, W.Input);
    NamedEngine EvChunk{"events_chunk4k", [&](std::string_view In) {
                          ParseRequest Req;
                          Req.Mode = ParseMode::Events;
                          StreamParser SP = P.stream(Req);
                          size_t N = 0;
                          for (size_t At = 0; At < In.size(); At += 4096) {
                            if (SP.feed(In.substr(At, 4096)) ==
                                StreamStatus::Error)
                              return false;
                            N += SP.drain().Events.size();
                          }
                          bool Ok = SP.finish() == StreamStatus::Done;
                          N += SP.drain().Events.size();
                          return Ok && N == EventCount;
                        }};
    const double EvChunkMBs = throughputMBs(EvChunk, W.Input);

    std::printf("%-8s%10.0f%10.0f%10.0f%10.0f%12zu%10.0f%10.0f%8.2f\n",
                Gr.c_str(), WholeMBs, StreamMBs[0], StreamMBs[1],
                StreamMBs[2], Carry4K, EvWholeMBs, EvChunkMBs,
                EvWholeMBs / WholeMBs);
    if (F) {
      std::fprintf(F,
                   "%s  \"%s\": {\"whole\": %.0f, \"chunk64\": %.0f, "
                   "\"chunk4k\": %.0f, \"chunk64k\": %.0f, "
                   "\"carry_hw_4k\": %zu, \"events_whole\": %.0f, "
                   "\"events_chunk4k\": %.0f}",
                   FirstRow ? "" : ",\n", Gr.c_str(), WholeMBs * 1e6,
                   StreamMBs[0] * 1e6, StreamMBs[1] * 1e6,
                   StreamMBs[2] * 1e6, Carry4K, EvWholeMBs * 1e6,
                   EvChunkMBs * 1e6);
      FirstRow = false;
    }
  }

  if (F) {
    std::fprintf(F, "\n}\n");
    std::fclose(F);
    std::printf("\nwrote %s\n", JsonPath);
  }
  return 0;
}
