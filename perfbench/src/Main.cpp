//===- perfbench/src/Main.cpp - The repository benchmark driver ----------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   flap_perfbench --workload docs|records|requests --seed N --seconds S
///                  --trace 0|1 --work-dir DIR [--commit SHA --dirty 0|1]
///
/// Untraced (--trace 0): one pass of the workload; prints the end-to-end
/// metrics. Traced (--trace 1): untraced and traced passes of the
/// workload in turn (the difference is the tracing overhead), then traced
/// census passes of the other two workloads and the fidelity references,
/// so the run reports every per-layer metric; spans go to DIR as CSV and
/// the per-layer self times are printed next to the untraced end-to-end
/// values.
///
/// The last line of standard output is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// The exit code is 0 only when every output check passed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";
  std::string Commit = "unknown";
  std::string Dirty = "unknown";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "flap_perfbench: %s\nusage: flap_perfbench --workload "
               "docs|records|requests --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--commit SHA --dirty 0|1]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    const std::string K = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + K).c_str());
    const std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--work-dir")
      A.WorkDir = V;
    else if (K == "--commit")
      A.Commit = V;
    else if (K == "--dirty")
      A.Dirty = V;
    else
      usage(("unknown option " + K).c_str());
  }
  if (A.Workload != "docs" && A.Workload != "records" &&
      A.Workload != "requests")
    usage("unknown workload");
  if (!(A.Seconds > 0))
    usage("--seconds must be positive");
  return A;
}

void (*workloadFn(const std::string &W))(RunCtx &) {
  return W == "docs" ? runDocs : W == "records" ? runRecords : runRequests;
}

std::string cpuModel() {
  std::ifstream F("/proc/cpuinfo");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("model name", 0) == 0) {
      const size_t C = Line.find(':');
      return C == std::string::npos ? Line : Line.substr(C + 2);
    }
  return "unknown";
}

std::string utcNow() {
  char Buf[32];
  const std::time_t T = std::time(nullptr);
  std::strftime(Buf, sizeof(Buf), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&T));
  return Buf;
}

/// JSON string escaping for the few free-text fields.
std::string quoted(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      O += C;
  }
  return O + "\"";
}

/// A metric value with all its digits.
std::string num(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printMetrics(const char *Title, const std::map<std::string, Metric> &M) {
  std::printf("%s\n", Title);
  for (const auto &KV : M)
    std::printf("  %-44s %16.6g %s\n", KV.first.c_str(), KV.second.Value,
                KV.second.Unit.c_str());
}

/// Prints the span table of one traced pass of \p Workload and adds its
/// per-call self times (the rounds' own bookkeeping is printed only).
void addSelfTimes(Report &R, const std::string &Workload,
                  const std::vector<SpanRec> &Spans) {
  const std::vector<SpanTotals> T = spanTotals(Spans);
  std::printf("spans of the traced %s pass (self = duration minus child "
              "spans):\n  %-26s %10s %12s %12s %12s\n",
              Workload.c_str(), "span", "count", "total_ms", "self_ms",
              "self_us/call");
  for (size_t K = 0; K < T.size(); ++K) {
    if (!T[K].Count)
      continue;
    const SpanKind Kind = static_cast<SpanKind>(K);
    const double PerCall = T[K].SelfNs / 1e3 / static_cast<double>(T[K].Count);
    std::printf("  %-26s %10llu %12.3f %12.3f %12.3f\n", spanName(Kind),
                static_cast<unsigned long long>(T[K].Count),
                T[K].TotalNs / 1e6, T[K].SelfNs / 1e6, PerCall);
    if (Kind != SpanKind::Round)
      R.layer("self_us." + Workload + "." + spanName(Kind), PerCall, "us");
  }
}

/// Folds one pass's check accounting into \p Into.
void mergeChecks(Report &Into, const Report &From) {
  Into.Attempted += From.Attempted;
  Into.Failed += From.Failed;
  Into.Failures.insert(Into.Failures.end(), From.Failures.begin(),
                       From.Failures.end());
}

/// The traced run: untraced and traced passes of the workload alternating
/// (two pairs, so drift of the host falls on both sides), traced census
/// passes of the other workloads (smaller corpora, shorter), and the
/// fidelity references. Fills R.PerLayer.
void tracedRun(const Args &A, RunCtx C, Report &R) {
  std::vector<SpanRec> All;
  auto pass = [&](const std::string &W, double Secs, double Scale,
                  bool Traced) {
    Report Pass;
    RunCtx T = C;
    T.R = &Pass;
    T.Seconds = Secs;
    T.Scale = Scale;
    T.PerLayer = true;
    Tracer::clear();
    Tracer::enable(Traced);
    workloadFn(W)(T);
    Tracer::enable(false);
    mergeChecks(R, Pass);
    if (!Traced)
      return Pass;
    const std::vector<SpanRec> Spans = Tracer::collect();
    addSelfTimes(R, W, Spans);
    All.insert(All.end(), Spans.begin(), Spans.end());
    for (const auto &KV : Pass.PerLayer)
      R.PerLayer[KV.first] = KV.second;
    return Pass;
  };
  std::vector<double> Ratios;
  std::map<std::string, Metric> FirstCounts;
  for (int Pair = 0; Pair < 2; ++Pair) {
    Report U = pass(A.Workload, A.Seconds * 0.15, 1.0, false);
    Report T = pass(A.Workload, A.Seconds * 0.15, 1.0, true);
    R.CorpusBytes = U.CorpusBytes;
    // Counts (events, pool pages, diagnostics, speculation) must repeat
    // exactly across passes over the same seed.
    for (const auto &KV : T.PerLayer) {
      if (KV.second.Unit != "count" && KV.second.Unit != "bytes")
        continue;
      if (Pair == 0)
        FirstCounts[KV.first] = KV.second;
      else
        R.check(FirstCounts[KV.first].Value == KV.second.Value,
                KV.first + " does not repeat for the same seed");
    }
    std::printf("end-to-end of %s, untraced vs traced pass:\n",
                A.Workload.c_str());
    for (const auto &KV : U.EndToEnd)
      std::printf("  %-20s %14.6g %14.6g %s\n", KV.first.c_str(),
                  KV.second.Value, T.EndToEnd[KV.first].Value,
                  KV.second.Unit.c_str());
    const double TU = U.EndToEnd["throughput_mbps"].Value;
    const double TT = T.EndToEnd["throughput_mbps"].Value;
    if (TT > 0)
      Ratios.push_back(TU / TT);
  }
  R.layer("trace.overhead_pct", (median(Ratios) - 1) * 100, "%");
  for (const char *W : {"docs", "records", "requests"})
    if (A.Workload != W)
      pass(W, A.Seconds * 0.12, 0.25, true);
  C.R = &R;
  runPaperRefs(C);

  const std::string SpanPath = A.WorkDir + "/spans-" + A.Workload + ".csv";
  if (writeSpans(All, SpanPath))
    std::printf("wrote %zu spans to %s\n", All.size(), SpanPath.c_str());
  else
    R.check(false, "cannot write " + SpanPath);
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);

  // The library's public layouts depend on NDEBUG (ROADMAP item 4a), and
  // its numbers are only comparable at its own flags.
#ifdef NDEBUG
  std::fprintf(stderr, "flap_perfbench: built with NDEBUG, but the flap "
                       "library's flags are -O3 -UNDEBUG\n");
  return 3;
#endif
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "flap_perfbench: built without optimization, but "
                       "the flap library's flags are -O3 -UNDEBUG\n");
  return 3;
#endif
  if (!std::strstr(PERFBENCH_CXX_FLAGS, "-O3") ||
      !std::strstr(PERFBENCH_CXX_FLAGS, "-UNDEBUG")) {
    std::fprintf(stderr, "flap_perfbench: built with '%s', but the flap "
                         "library's flags are -O3 -UNDEBUG\n",
                 PERFBENCH_CXX_FLAGS);
    return 3;
  }

  std::printf("flap perfbench: workload %s, seed %llu, %g s, trace %d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);
  Report R;
  RunCtx C;
  C.Seed = A.Seed;
  C.Seconds = A.Seconds;
  C.WorkDir = A.WorkDir;
  C.R = &R;
  if (A.Trace) {
    tracedRun(A, C, R);
  } else {
    workloadFn(A.Workload)(C);
    R.e2e("peak_rss_mb", peakRssMb(), "MB");
  }

  // Run metadata, in the style of a perf snapshot header.
  std::printf(
      "meta: {\"date\": %s, \"commit\": %s, \"dirty\": %s, \"compiler\": %s, "
      "\"flags\": %s, \"build_type\": %s, \"ndebug\": false, \"cpu\": %s, "
      "\"nproc\": %u, \"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"corpus_bytes\": %s}\n",
      quoted(utcNow()).c_str(), quoted(A.Commit).c_str(),
      quoted(A.Dirty).c_str(), quoted(PERFBENCH_COMPILER).c_str(),
      quoted(PERFBENCH_CXX_FLAGS).c_str(), quoted(PERFBENCH_BUILD_TYPE).c_str(),
      quoted(cpuModel()).c_str(), std::thread::hardware_concurrency(),
      quoted(A.Workload).c_str(), static_cast<unsigned long long>(A.Seed),
      num(A.Seconds).c_str(), A.Trace ? 1 : 0, num(R.CorpusBytes).c_str());

  for (const std::string &F : R.Failures)
    std::printf("CHECK FAILED: %s\n", F.c_str());
  const bool Correct = R.Failed == 0 && R.Attempted > 0;
  std::printf("checks: %llu attempted, %llu failed, error_rate %g\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 1.0);
  const std::map<std::string, Metric> &Out = A.Trace ? R.PerLayer : R.EndToEnd;
  printMetrics(A.Trace ? "per-layer metrics:" : "end-to-end metrics:", Out);

  std::string J = std::string("{\"correct\": ") +
                  (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(R.Attempted) +
                  ", \"failed\": " + std::to_string(R.Failed) +
                  ", \"metrics\": {";
  bool First = true;
  for (const auto &KV : Out) {
    J += (First ? "" : ", ") + quoted(KV.first) + ": {\"value\": " +
         num(KV.second.Value) + ", \"unit\": " + quoted(KV.second.Unit) + "}";
    First = false;
  }
  std::printf("%s}}\n", J.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
