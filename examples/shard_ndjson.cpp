//===- examples/shard_ndjson.cpp - Data-parallel NDJSON parsing ---------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The batch counterpart of examples/stream_ndjson.cpp: the whole
/// newline-delimited corpus is already in memory (an mmap'd log, an
/// object-store chunk), so instead of feeding it through one parser we
/// split it across cores with the shard tier (engine/Shard.h). The
/// ShardParser speculatively cuts the buffer at record boundaries its
/// own sync classifiers propose, parses the shards concurrently, and
/// verifies each speculation against the previous shard's exit offset —
/// the stitched result is byte-identical to a sequential parse, and the
/// example proves it by running both and comparing.
///
///   ./example_shard_ndjson [threads [megabytes]]   # default: all cores, 8 MB
///
/// Also demonstrated: recovery mode across shards (a corrupted record
/// yields the same structured diagnostics, in the same order, as the
/// sequential recovery parse) and the Stats counters that make the
/// speculation observable (shards, mispredictions, re-parsed bytes).
///
//===----------------------------------------------------------------------===//

#include "engine/Shard.h"
#include "grammars/Grammars.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace flap;

int main(int argc, char **argv) {
  size_t Threads = 0; // 0 = hardware_concurrency
  size_t MB = 8;
  if (argc > 1)
    Threads = static_cast<size_t>(std::strtoul(argv[1], nullptr, 10));
  if (argc > 2)
    MB = static_cast<size_t>(std::strtoul(argv[2], nullptr, 10));
  if (MB == 0)
    MB = 8;

  // compileFlapRecords adds the `record` entry the shard tier parses
  // runs of (one json document per line in this corpus).
  auto Def = makeJsonGrammar();
  auto PR = compileFlapRecords(Def);
  if (!PR.ok()) {
    std::fprintf(stderr, "compile: %s\n", PR.error().c_str());
    return 1;
  }
  FlapParser P = PR.take();
  const NtId Record = recordEntry(P);

  // Synthesize the corpus: NDJSON with enough nesting that record
  // boundaries are not trivially every newline (newlines also occur
  // right after `[` inside no record — the sync classifier plus the
  // entry-liveness check reject those as split candidates).
  std::string S;
  S.reserve(MB * 1'000'000 + 128);
  for (unsigned I = 0; S.size() < MB * 1'000'000; ++I) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"seq\": %u, \"payload\": [%u, {\"s\": \"a}b]c\"}], "
                  "\"ok\": true}\n",
                  I, I % 97);
    S += Buf;
  }

  ShardOptions O;
  O.Threads = Threads;
  ShardParser SP(P.M, Record, O);
  std::printf("corpus: %zu bytes; %zu worker thread(s)\n", S.size(),
              SP.workers());

  // Sequential reference (Splits = {} forces the single-shard path).
  Stopwatch WSeq;
  ShardedValues Seq = SP.parseValuesAt(S, {});
  const double SeqS = WSeq.seconds();
  if (!Seq.Ok) {
    std::fprintf(stderr, "sequential parse failed: %s\n", Seq.ErrMsg.c_str());
    return 1;
  }

  // Parallel: plan splits with the machine's own sync classifiers.
  Stopwatch WPar;
  ShardedValues Par = SP.parseValues(S);
  const double ParS = WPar.seconds();
  if (!Par.Ok) {
    std::fprintf(stderr, "sharded parse failed: %s\n", Par.ErrMsg.c_str());
    return 1;
  }
  if (Par.NumRecords != Seq.NumRecords ||
      Par.Values.size() != Seq.Values.size()) {
    std::fprintf(stderr, "MISMATCH: sequential %zu records, sharded %zu\n",
                 Seq.NumRecords, Par.NumRecords);
    return 1;
  }
  for (size_t I = 0; I < Seq.Values.size(); ++I)
    if (Seq.Values[I].str() != Par.Values[I].str()) {
      std::fprintf(stderr, "MISMATCH at record %zu\n", I);
      return 1;
    }
  std::printf("identical to sequential: %zu records\n", Par.NumRecords);
  std::printf("  sequential %7.1f MB/s\n",
              static_cast<double>(S.size()) / SeqS / 1e6);
  std::printf("  sharded    %7.1f MB/s  (%zu shards, %zu mispredicted, "
              "%zu bytes re-parsed)\n",
              static_cast<double>(S.size()) / ParS / 1e6, Par.Stats.Shards,
              Par.Stats.Mispredicted, Par.Stats.ReparsedBytes);

  // Recovery across shards: corrupt a byte every ~512 KB, then show the
  // stitched diagnostics equal the sequential ones, in input order.
  std::string Bad = S;
  size_t Corrupted = 0;
  for (size_t At = 256 * 1024; At < Bad.size(); At += 512 * 1024) {
    size_t Nl = Bad.find('\n', At);
    if (Nl == std::string::npos || Nl + 1 >= Bad.size())
      break;
    Bad[Nl + 1] = '!'; // '!' starts no json token outside a string
    ++Corrupted;
  }
  // A recovery request is the same request with an error budget.
  ParseRequest Req;
  Req.MaxErrors = Corrupted + 4;
  const std::vector<size_t> OneShard;
  ShardOutcome RSeq = SP.run(Req, Bad, &OneShard);
  ShardOutcome RPar = SP.run(Req, Bad);
  if (RPar.Errors != RSeq.Errors || RPar.NumRecords != RSeq.NumRecords) {
    std::fprintf(stderr, "RECOVERY MISMATCH: seq %zu diags, sharded %zu\n",
                 RSeq.Errors.size(), RPar.Errors.size());
    return 1;
  }
  std::printf("recovery: %zu corrupted records -> %zu diagnostics, "
              "identical to sequential; first: %s\n",
              Corrupted, RPar.Errors.size(),
              RPar.Errors.empty() ? "(none)"
                                  : RPar.Errors[0].message().c_str());
  return 0;
}
