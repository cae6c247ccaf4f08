//===- examples/stream_ndjson.cpp - Chunked NDJSON parsing --------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// The server scenario the streaming API exists for: newline-delimited
/// JSON arriving in socket-sized chunks, parsed incrementally with the
/// push-style StreamParser — no whole-document buffering, the carry
/// buffer holds at most the in-flight document.
///
///   ./example_stream_ndjson [chunk_bytes]      # synthetic 2 MB stream
///   ... | ./example_stream_ndjson [chunk_bytes]  # read stdin instead
///
/// The stream is a ParseRequest with an error budget of 100 (strict
/// would be a budget of one; see engine/README.md "The recovery
/// contract"): a corrupted record does not kill the connection. The
/// parser reports a structured ParseDiagnostic (offset, line/column,
/// expected set, resync action), skips to the next record boundary,
/// and keeps serving — the synthetic stream deliberately corrupts a
/// byte every ~128 KB to show the contract in action. After every feed
/// the example drains the stream's ParseOutcome: the values of the
/// segments completed so far and the diagnostics resolved so far.
///
//===----------------------------------------------------------------------===//

#include "engine/Stream.h"
#include "grammars/Grammars.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

using namespace flap;

int main(int argc, char **argv) {
  size_t ChunkBytes = 4096;
  if (argc > 1)
    ChunkBytes = static_cast<size_t>(std::strtoul(argv[1], nullptr, 10));
  if (ChunkBytes == 0)
    ChunkBytes = 4096;

  auto Def = makeJsonGrammar();
  auto PR = compileFlap(Def);
  if (!PR.ok()) {
    std::fprintf(stderr, "compile: %s\n", PR.error().c_str());
    return 1;
  }
  FlapParser P = PR.take();
  ParseRequest Req;
  Req.MaxErrors = 100; // corrupt records yield diagnostics, not dead streams
  StreamParser SP = P.stream(Req);

  size_t Feeds = 0, Reported = 0, Segs = 0;
  long long Objects = 0;
  bool Truncated = false;
  // Drains the outcome as it accumulates, like a server writing its
  // error log while the connection stays up. The per-segment json value
  // is that segment's document count.
  auto Drain = [&] {
    ParseOutcome O = SP.drain();
    for (const Value &V : O.Values)
      Objects += static_cast<long long>(V.asInt());
    Segs += O.Values.size();
    for (const ParseDiagnostic &D : O.Errors) {
      ++Reported;
      std::fprintf(stderr, "recovered (line %llu, col %llu): %s\n",
                   static_cast<unsigned long long>(D.Line),
                   static_cast<unsigned long long>(D.Col),
                   D.message().c_str());
    }
    Truncated |= O.Truncated;
  };
  auto Push = [&](std::string_view Chunk) {
    ++Feeds;
    StreamStatus St = SP.feed(Chunk);
    Drain();
    return St != StreamStatus::Error;
  };

  bool FromStdin = isatty(STDIN_FILENO) == 0;
  if (FromStdin) {
    // The real thing: read(2)-sized chunks straight off the descriptor.
    std::string Buf(ChunkBytes, '\0');
    ssize_t N;
    while ((N = read(STDIN_FILENO, Buf.data(), Buf.size())) > 0)
      if (!Push(std::string_view(Buf.data(), static_cast<size_t>(N))))
        break;
    FromStdin = Feeds > 0; // empty stdin (e.g. /dev/null): synthesize
  }
  if (!FromStdin) {
    // No pipe: synthesize ~2 MB of newline-delimited documents (the
    // Fig. 12 json workload is exactly that shape), corrupt the first
    // byte of a record every ~128 KB, and replay it in fixed-size
    // chunks as a socket would deliver it.
    Rng R(42);
    Workload W = genJson(R, 2'000'000);
    std::string S = std::move(W.Input);
    size_t Corrupted = 0;
    for (size_t At = 64 * 1024; At < S.size(); At += 128 * 1024) {
      size_t Nl = S.find('\n', At);
      if (Nl == std::string::npos || Nl + 1 >= S.size())
        break;
      S[Nl + 1] = '!'; // '!' starts no json token outside a string
      ++Corrupted;
    }
    std::printf("(no stdin pipe; replaying a synthetic %zu-byte NDJSON "
                "stream, %zu records corrupted, in %zu-byte chunks)\n",
                S.size(), Corrupted, ChunkBytes);
    std::string_view In = S;
    for (size_t At = 0; At < In.size(); At += ChunkBytes)
      if (!Push(In.substr(At, ChunkBytes)))
        break;
  }

  const StreamStatus St = SP.finish();
  Drain();
  if (St == StreamStatus::Error) {
    // Only a Fatal diagnostic (error budget spent / no sync token) fails
    // the stream.
    std::fprintf(stderr, "fatal: %s\n", SP.take().error().c_str());
    return 1;
  }

  std::printf("stream ok: %lld objects across %zu segments, %zu "
              "diagnostics%s, %llu bytes, %zu feeds\n",
              Objects, Segs, Reported, Truncated ? " (truncated)" : "",
              static_cast<unsigned long long>(SP.streamedBytes()), Feeds);
  std::printf("carry high-water: %zu bytes (vs whole-buffer %llu)\n",
              SP.carryHighWater(),
              static_cast<unsigned long long>(SP.streamedBytes()));
  return 0;
}
