//===- perfbench/src/Bench.cpp - Statistics, tracer, resources -----------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "grammars/Grammars.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sys/resource.h>

using namespace perfbench;

const std::vector<std::string> &perfbench::grammarOrder() {
  static const std::vector<std::string> Order = {"json", "sexp", "arith",
                                                 "pgn",  "ppm",  "csv"};
  return Order;
}

std::shared_ptr<flap::GrammarDef> perfbench::makeGrammar(const std::string &N) {
  if (N == "json")
    return flap::makeJsonGrammar();
  if (N == "sexp")
    return flap::makeSexpGrammar();
  if (N == "arith")
    return flap::makeArithGrammar();
  if (N == "pgn")
    return flap::makePgnGrammar();
  if (N == "ppm")
    return flap::makePpmGrammar();
  if (N == "csv")
    return flap::makeCsvGrammar();
  std::fprintf(stderr, "perfbench: unknown grammar '%s'\n", N.c_str());
  std::abort();
}

flap::Workload perfbench::genCorpus(const std::string &Name, uint64_t Seed,
                                    size_t Bytes) {
  if (Name != "csv")
    return flap::genWorkload(Name, Seed, Bytes);
  constexpr uint64_t Pieces = 16;
  flap::Workload W;
  W.Input.reserve(Bytes + 4096);
  int64_t Records = 0;
  for (uint64_t I = 0; I < Pieces; ++I) {
    flap::Workload P =
        flap::genWorkload(Name, Seed * Pieces + I, Bytes / Pieces);
    W.Input += P.Input;
    Records += P.Expected.asInt();
  }
  W.Expected = flap::Value::integer(Records);
  W.HasExpected = true;
  return W;
}

double perfbench::median(std::vector<double> S) {
  if (S.empty())
    return 0;
  std::sort(S.begin(), S.end());
  const size_t N = S.size();
  return N % 2 ? S[N / 2] : (S[N / 2 - 1] + S[N / 2]) / 2;
}

double perfbench::quantile(std::vector<double> S, double Q) {
  if (S.empty())
    return 0;
  std::sort(S.begin(), S.end());
  const size_t At =
      static_cast<size_t>(Q * static_cast<double>(S.size() - 1) + 0.5);
  return S[std::min(At, S.size() - 1)];
}

double perfbench::fastest(const std::vector<double> &S) {
  return S.empty() ? 0 : *std::min_element(S.begin(), S.end());
}

double perfbench::setupQuantile(const std::vector<double> &S) {
  return quantile(S, 0.1);
}

double perfbench::geomean(const std::vector<double> &S) {
  if (S.empty())
    return 0;
  double L = 0;
  for (double V : S)
    L += std::log(V);
  return std::exp(L / static_cast<double>(S.size()));
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {

std::atomic<bool> TracingOn{false};

/// One thread's spans plus its stack of open spans (for parent links).
struct ThreadLog {
  uint32_t Id = 0;
  std::vector<SpanRec> Spans;
  std::vector<int64_t> Open;
};

std::mutex LogsMu;
std::vector<std::shared_ptr<ThreadLog>> Logs; // guarded by LogsMu

ThreadLog &myLog() {
  thread_local std::shared_ptr<ThreadLog> Mine = [] {
    auto L = std::make_shared<ThreadLog>();
    std::lock_guard<std::mutex> G(LogsMu);
    L->Id = static_cast<uint32_t>(Logs.size());
    Logs.push_back(L);
    return L;
  }();
  return *Mine;
}

} // namespace

const char *perfbench::spanName(SpanKind K) {
  static const char *const Names[] = {
      "round",          "pipeline.compile", "pipeline.compile_records",
      "parser.recognize", "parser.parse",   "parser.events",
      "stream.run",     "stream.feed",      "stream.finish",
      "shard.plan",     "shard.values",     "shard.recognize",
      "artifact.load",  "artifact.audit_load", "registry.install",
      "serve.spawn",    "serve.request",    "serve.submit",
      "parser.batch",   "parser.batch_recover"};
  static_assert(sizeof(Names) / sizeof(*Names) ==
                    static_cast<size_t>(SpanKind::NumKinds),
                "one name per span kind");
  return Names[static_cast<size_t>(K)];
}

void Tracer::enable(bool On) { TracingOn.store(On); }
bool Tracer::on() { return TracingOn.load(std::memory_order_relaxed); }

std::vector<SpanRec> Tracer::collect() {
  std::lock_guard<std::mutex> G(LogsMu);
  std::vector<SpanRec> All;
  for (auto &L : Logs)
    All.insert(All.end(), L->Spans.begin(), L->Spans.end());
  return All;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> G(LogsMu);
  for (auto &L : Logs) {
    L->Spans.clear();
    L->Open.clear();
  }
}

int64_t Tracer::record(SpanKind K, int64_t Begin, int64_t End,
                       uint64_t Request, int64_t Parent) {
  if (!on())
    return -1;
  ThreadLog &L = myLog();
  SpanRec S;
  S.Kind = K;
  S.Begin = Begin;
  S.End = End;
  S.Request = Request;
  S.Parent = Parent;
  S.Thread = L.Id;
  L.Spans.push_back(S);
  return static_cast<int64_t>(L.Spans.size()) - 1;
}

Span::Span(SpanKind K, uint64_t Request) {
  if (!Tracer::on())
    return;
  ThreadLog &L = myLog();
  SpanRec S;
  S.Kind = K;
  S.Request = Request;
  S.Thread = L.Id;
  S.Parent = L.Open.empty() ? -1 : L.Open.back();
  Index = static_cast<int64_t>(L.Spans.size());
  L.Open.push_back(Index);
  S.Begin = nowNs();
  L.Spans.push_back(S);
}

Span::~Span() {
  if (Index < 0)
    return;
  ThreadLog &L = myLog();
  L.Spans[static_cast<size_t>(Index)].End = nowNs();
  L.Open.pop_back();
}

std::vector<SpanTotals>
perfbench::spanTotals(const std::vector<SpanRec> &Spans) {
  std::vector<SpanTotals> T(static_cast<size_t>(SpanKind::NumKinds));
  // Children of one span run on its thread and nest inside it, so the
  // covered part of a parent is the sum of its children's durations.
  // Parent indices are per thread; Spans holds each thread's log as one
  // contiguous run in log order (Tracer::collect).
  std::vector<double> ChildNs(Spans.size(), 0);
  size_t Base = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (I > 0 && Spans[I].Thread != Spans[I - 1].Thread)
      Base = I;
    const SpanRec &S = Spans[I];
    if (S.Parent >= 0)
      ChildNs[Base + static_cast<size_t>(S.Parent)] +=
          static_cast<double>(S.End - S.Begin);
  }
  for (size_t I = 0; I < Spans.size(); ++I) {
    SpanTotals &K = T[static_cast<size_t>(Spans[I].Kind)];
    const double D = static_cast<double>(Spans[I].End - Spans[I].Begin);
    ++K.Count;
    K.TotalNs += D;
    K.SelfNs += D - ChildNs[I];
  }
  return T;
}

bool perfbench::writeSpans(const std::vector<SpanRec> &Spans,
                           const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "name,thread,begin_ns,end_ns,parent,request\n");
  for (const SpanRec &S : Spans)
    std::fprintf(F, "%s,%u,%lld,%lld,%lld,%llu\n", spanName(S.Kind), S.Thread,
                 static_cast<long long>(S.Begin),
                 static_cast<long long>(S.End),
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request));
  return std::fclose(F) == 0;
}
