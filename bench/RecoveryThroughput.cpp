//===- bench/RecoveryThroughput.cpp - Error-recovery throughput ----------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Prices the sync-token recovery path (a CompiledParser::run request
/// with an error budget, engine/README.md "The recovery contract") against the plain parse on
/// the grammars whose roots are record sequences (json / csv / pgn —
/// the grammars a malformed-input serving contract is *for*):
///
///   clean_parse     plain M.parse over the clean stream (the baseline)
///   clean_recover   a recovering run over the same clean stream — prices
///                   the recovery plumbing when nothing goes wrong; the
///                   acceptance gate is clean_recover >= 0.95x
///                   clean_parse
///   corrupt1 / corrupt10
///                   recovering runs with 1% / 10% of records corrupted
///                   (first record byte replaced by a grammar-unlexable
///                   byte), pricing the resync scan + re-entry
///
/// Corruption is deterministic (every Nth record), so reported error
/// counts are reproducible and the JSON rows are comparable across
/// machines. `--json[=path]` writes BENCH_recovery.json (see
/// bench/README.md).
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstring>

using namespace flapbench;

namespace {

/// One timed sweep: \p Loops passes over the stream so a measurement
/// lasts tens of milliseconds; returns MB/s.
double sweepMBs(size_t Bytes, size_t Loops,
                const std::function<void()> &Run) {
  Stopwatch W;
  for (size_t L = 0; L < Loops; ++L)
    Run();
  return static_cast<double>(Bytes) * static_cast<double>(Loops) /
         W.seconds() / 1e6;
}

double medianOf(std::vector<double> &S) {
  std::nth_element(S.begin(), S.begin() + S.size() / 2, S.end());
  return S[S.size() / 2];
}

/// One synthesized record (self-delimiting, newline-terminated) in the
/// BatchThroughput request-payload shape.
std::string makeRecord(const std::string &GName, size_t I) {
  const unsigned A = static_cast<unsigned>(I);
  char Buf[256];
  if (GName == "json")
    std::snprintf(Buf, sizeof(Buf),
                  "{\"id\": %u, \"name\": \"u%u\", \"tags\": [%u, %u, %u], "
                  "\"ok\": true}\n",
                  A, A, A % 7, A % 13, A % 29);
  else if (GName == "csv")
    std::snprintf(Buf, sizeof(Buf), "%u,%u,x%u\r\n", A, A * 3, A % 7);
  else // pgn
    std::snprintf(Buf, sizeof(Buf), "[Round \"%u\"]\n1. e%u d%u 2. Nf3 Nc6 %s\n",
                  A, A % 4 + 2, A % 4 + 2, A % 2 ? "1-0" : "0-1");
  return Buf;
}

/// Concatenates \p NumRecs records; when Stride > 0, the first byte of
/// every record with I % Stride == Stride/2 is replaced by \p Bad (a
/// byte no lexer rule of the grammar can start or continue), producing
/// a corruption rate of 1/Stride.
std::string makeStream(const std::string &GName, size_t NumRecs,
                       size_t Stride, char Bad, size_t *NumCorrupt) {
  std::string S;
  size_t Corrupt = 0;
  for (size_t I = 0; I < NumRecs; ++I) {
    std::string R = makeRecord(GName, I);
    if (Stride && I % Stride == Stride / 2) {
      R[0] = Bad;
      ++Corrupt;
    }
    S += R;
  }
  if (NumCorrupt)
    *NumCorrupt = Corrupt;
  return S;
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      JsonPath = "BENCH_recovery.json";
    else if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else {
      std::fprintf(stderr, "usage: %s [--json[=path]]\n", argv[0]);
      return 2;
    }
  }

  const size_t NumRecs =
      std::max<size_t>(256, static_cast<size_t>(8192 * benchScale()));

  std::printf("Recovery-mode throughput (MB/s, %zu-record streams): plain "
              "parse vs a recovering run\non clean input, then recovery at "
              "1%% and 10%% record corruption.\n\n",
              NumRecs);
  std::printf("%-8s%12s%12s%12s%12s%12s\n", "", "parse", "recover",
              "rec/parse", "corrupt1%", "corrupt10%");

  FILE *F = nullptr;
  if (JsonPath) {
    F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"meta\": {\"records\": %zu, \"record_shape\": "
                 "\"synthesized request payloads\", \"scale\": %.3f, "
                 "\"unit\": \"MB_per_s\", \"corruption\": \"first record "
                 "byte -> unlexable, every Nth record\", \"rates\": "
                 "[0.01, 0.10], \"gate\": \"clean_recover >= 0.95 * "
                 "clean_parse\"},\n",
                 NumRecs, benchScale());
  }

  bool FirstRow = true;
  bool GateOk = true;
  for (const char *Name : {"json", "csv", "pgn"}) {
    std::shared_ptr<GrammarDef> Def;
    for (auto &G : allBenchmarkGrammars())
      if (G->Name == Name)
        Def = G;
    auto PR = compileFlap(Def);
    if (!PR.ok()) {
      std::fprintf(stderr, "compile(%s): %s\n", Name, PR.error().c_str());
      return 1;
    }
    FlapParser P = PR.take();

    // json: '!' can start no token outside a string literal; csv: a
    // lone '\r' (the row's digit follows, not '\n') matches no rule —
    // unlike '"', which would pair up with the next corruption into one
    // quoted token swallowing the rows between; pgn: no rule admits '!'.
    const char Bad = Name == std::string("csv") ? '\r' : '!';
    const std::string Clean = makeStream(Name, NumRecs, 0, Bad, nullptr);
    size_t NumC1 = 0, NumC10 = 0;
    const std::string C1 = makeStream(Name, NumRecs, 100, Bad, &NumC1);
    const std::string C10 = makeStream(Name, NumRecs, 10, Bad, &NumC10);

    ParseRequest Req;
    Req.MaxErrors = NumRecs * 4; // never truncate in this bench
    ParseScratch Scratch;
    auto recover = [&](std::string_view In) {
      RecoveredParse Out;
      P.M.run(Req, In, Scratch, Out);
      return Out;
    };

    // Validate the corpus before timing (abort on surprise, like the
    // other benches): the clean stream must parse, the corrupted ones
    // must recover — errors reported AND values still served.
    {
      Result<Value> R = P.parse(Clean);
      if (!R.ok()) {
        std::fprintf(stderr, "%s rejects its clean stream: %s\n", Name,
                     R.error().c_str());
        return 1;
      }
      RecoveredParse RC = recover(Clean);
      if (!RC.clean()) {
        std::fprintf(stderr, "%s: recovery not clean on clean input\n",
                     Name);
        return 1;
      }
      for (const std::string *S : {&C1, &C10}) {
        RecoveredParse RR = recover(*S);
        if (RR.Errors.empty() || RR.Truncated || RR.Values.empty()) {
          std::fprintf(stderr,
                       "%s: corrupted stream did not recover (%zu errors, "
                       "%zu values, truncated=%d)\n",
                       Name, RR.Errors.size(), RR.Values.size(),
                       static_cast<int>(RR.Truncated));
          return 1;
        }
      }
    }
    const size_t E1 =
        recover(C1).Errors.size();
    const size_t E10 =
        recover(C10).Errors.size();

    // Interleaved measurement, medians per configuration: frequency
    // drift moves every configuration together and cancels out of the
    // rec/parse ratio (same discipline as BatchThroughput).
    const size_t Loops =
        std::max<size_t>(2, 12u * 1000 * 1000 / Clean.size());
    const int Reps = 9;
    long Sink = 0;
    std::vector<double> S[4];
    for (int R = 0; R < Reps; ++R) {
      S[0].push_back(sweepMBs(Clean.size(), Loops, [&] {
        Sink += P.parse(Clean).ok();
      }));
      S[1].push_back(sweepMBs(Clean.size(), Loops, [&] {
        RecoveredParse Out = recover(Clean);
        Sink += static_cast<long>(Out.Values.size());
      }));
      S[2].push_back(sweepMBs(C1.size(), Loops, [&] {
        RecoveredParse Out = recover(C1);
        Sink += static_cast<long>(Out.Errors.size());
      }));
      S[3].push_back(sweepMBs(C10.size(), Loops, [&] {
        RecoveredParse Out = recover(C10);
        Sink += static_cast<long>(Out.Errors.size());
      }));
    }
    const double CleanParse = medianOf(S[0]);
    const double CleanRec = medianOf(S[1]);
    const double Cor1 = medianOf(S[2]);
    const double Cor10 = medianOf(S[3]);
    const double Ratio = CleanRec / CleanParse;
    GateOk = GateOk && Ratio >= 0.95;

    std::printf("%-8s%12.1f%12.1f%12.3f%12.1f%12.1f\n", Name, CleanParse,
                CleanRec, Ratio, Cor1, Cor10);
    if (F) {
      std::fprintf(F,
                   "%s  \"%s\": {\"bytes\": %zu, \"clean_parse\": %.1f, "
                   "\"clean_recover\": %.1f, \"recover_vs_parse\": %.3f, "
                   "\"corrupt1_recover\": %.1f, \"corrupt1_errors\": %zu, "
                   "\"corrupt10_recover\": %.1f, \"corrupt10_errors\": %zu}",
                   FirstRow ? "" : ",\n", Name, Clean.size(), CleanParse,
                   CleanRec, Ratio, Cor1, E1, Cor10, E10);
      FirstRow = false;
    }
    if (Sink == -1)
      std::printf("(impossible)\n"); // keep the parses observable
  }

  std::printf("\nclean-input recovery overhead gate (>= 0.95x): %s\n",
              GateOk ? "ok" : "FAILED");
  if (F) {
    std::fprintf(F, "\n}\n");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  }
  return GateOk ? 0 : 1;
}
