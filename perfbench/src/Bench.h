//===- perfbench/src/Bench.h - Shared benchmark scaffolding ----*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of the repository benchmark shares: the run
/// context, the metric report, the output oracle's failure accounting,
/// sample statistics, and the span tracer of the traced run.
///
/// Every number is measured from outside the library, by timing calls into
/// its public functions. A workload runs in *rounds*: each round makes one
/// timed call per configuration, so slow drift of the host spreads evenly
/// over the configurations; every reported rate comes from the fastest
/// round (see fastest()).
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_PERFBENCH_BENCH_H
#define FLAP_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace flap {
struct GrammarDef;
struct Workload;
} // namespace flap

namespace perfbench {

/// The six benchmark grammars in the paper's Fig. 11 order.
const std::vector<std::string> &grammarOrder();
/// A freshly built definition of grammar \p Name (aborts on unknown).
std::shared_ptr<flap::GrammarDef> makeGrammar(const std::string &Name);
/// The seeded corpus of grammar \p Name: genWorkload, except that csv is
/// sixteen concatenated pieces (genCsv draws one column count, 3 to 12,
/// per corpus, which would swing the per-byte cost from seed to seed).
flap::Workload genCorpus(const std::string &Name, uint64_t Seed,
                         size_t Bytes);

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Median of \p S (the mean of the two middle samples for even counts).
double median(std::vector<double> S);
/// The \p Q quantile (0..1), nearest rank on the sorted samples.
double quantile(std::vector<double> S, double Q);
double geomean(const std::vector<double> &S);
/// The fastest of the call times \p S: what one call costs when no
/// neighbour on a shared host contends for the core. Such a host runs one
/// thread at two speeds some 40% apart, each held for seconds, so a
/// run's median lands on whichever speed held longer; the fastest call
/// of a long run reads the same speed run after run.
double fastest(const std::vector<double> &S);
/// setup_s of a run: the 10th percentile of its set-up times \p S, taken
/// once before the rounds and once in every round. A set-up is short and
/// meets the host as it finds it (a spawned thread may wait for a core to
/// wake), so the fastest set-up of a run is a rare all-warm one and the
/// median moves with the host's mix; the 10th percentile reads the same
/// from run to run.
double setupQuantile(const std::vector<double> &S);

/// One metric as printed: name, value, unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one run reports. End-to-end metrics come from untraced passes,
/// per-layer metrics from the traced run.
struct Report {
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> PerLayer;
  /// Input bytes the workload generated (run metadata).
  double CorpusBytes = 0;
  /// The output oracle: every checked operation counts as attempted; a
  /// mismatch counts as failed and is described once in Failures.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;

  void e2e(const std::string &Name, double V, const char *Unit) {
    EndToEnd[Name] = {V, Unit};
  }
  void layer(const std::string &Name, double V, const char *Unit) {
    PerLayer[Name] = {V, Unit};
  }
  /// Records one checked outcome; \p What describes a mismatch.
  void check(bool Ok, const char *What) {
    checkWith(Ok, [What] { return std::string(What); });
  }
  void check(bool Ok, const std::string &What) {
    checkWith(Ok, [&What] { return What; });
  }
  /// As check(), with the description built only on a mismatch (checks
  /// sit next to timed calls).
  template <typename Describe> void checkWith(bool Ok, Describe &&D) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Failures.size() < 20)
        Failures.push_back(D());
    }
  }
};

/// How a workload pass runs.
struct RunCtx {
  uint64_t Seed = 1;
  double Seconds = 10;  ///< measuring budget of this pass
  double Scale = 1.0;   ///< corpus size factor (census passes shrink it)
  bool PerLayer = false; ///< also take the per-layer readings
  std::string WorkDir;  ///< scratch directory inside the checkout
  Report *R = nullptr;
};

/// The workloads; each fills RunCtx::R.
void runDocs(RunCtx &C);
void runRecords(RunCtx &C);
void runRequests(RunCtx &C);

/// The fidelity references of the traced run (flap vs the LALR and
/// unfused baselines, library vs emitted code); see Baselines.cpp.
void runPaperRefs(RunCtx &C);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// The layer boundaries the traced run records, one per public call the
/// benchmark times. Names double as metric-name suffixes.
enum class SpanKind : uint8_t {
  Round,           ///< one measuring round of a workload (root)
  Compile,         ///< compileFlap
  CompileRecords,  ///< compileFlapRecords
  Recognize,       ///< CompiledParser::recognize
  Parse,           ///< CompiledParser::parse / parseFrom
  Events,          ///< CompiledParser::parseEvents(Records)
  Stream,          ///< one whole StreamParser run
  StreamFeed,      ///< StreamParser::feed
  StreamFinish,    ///< StreamParser::finish
  ShardPlan,       ///< ShardParser::planSplits
  ShardValues,     ///< ShardParser::parseValues
  ShardRecognize,  ///< ShardParser::recognize
  ArtifactLoad,    ///< loadArtifact, trusted (checksum only)
  ArtifactAuditLoad, ///< loadArtifact, untrusted (full table audit)
  RegistryInstall, ///< GrammarRegistry::install
  ServeSpawn,      ///< ParseService construction
  ServeRequest,    ///< submit → reply observed (a request's root)
  ServeSubmit,     ///< ParseService::submit
  Batch,           ///< CompiledParser::parseBatch
  BatchRecover,    ///< CompiledParser::parseBatchRecover
  NumKinds
};
const char *spanName(SpanKind K);

/// A closed span: a layer call with its interval, its parent span (on the
/// same thread) and the request it served (0 outside requests).
struct SpanRec {
  int64_t Begin = 0, End = 0;
  int64_t Parent = -1; ///< index into the same thread's log, -1 for roots
  uint64_t Request = 0;
  SpanKind Kind = SpanKind::Round;
  uint32_t Thread = 0;
};

/// Spans are kept in memory, one log per thread, and written out at exit.
/// Tracing is a process-wide switch; with it off a Span costs one branch.
class Tracer {
public:
  static void enable(bool On);
  static bool on();
  /// Every span recorded so far, all threads.
  static std::vector<SpanRec> collect();
  /// Drops every recorded span (between passes).
  static void clear();
  /// Records a closed span whose interval was measured by the caller (a
  /// request outlives any one scope); returns its index in this thread's
  /// log for use as \p Parent of later records, or -1 when tracing is off.
  static int64_t record(SpanKind K, int64_t Begin, int64_t End,
                        uint64_t Request, int64_t Parent = -1);
};

/// RAII span around one layer call.
class Span {
public:
  explicit Span(SpanKind K, uint64_t Request = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int64_t Index = -1;
};

/// Per-kind totals of a span set: count, summed duration, and summed self
/// time (duration minus the part covered by child spans).
struct SpanTotals {
  uint64_t Count = 0;
  double TotalNs = 0;
  double SelfNs = 0;
};
std::vector<SpanTotals> spanTotals(const std::vector<SpanRec> &Spans);

/// Writes \p Spans as CSV (a header, then one span per line) to \p Path.
bool writeSpans(const std::vector<SpanRec> &Spans, const std::string &Path);

/// Peak resident set of this process so far, MB.
double peakRssMb();

} // namespace perfbench

#endif // FLAP_PERFBENCH_BENCH_H
