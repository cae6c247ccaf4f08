//===- perfbench/src/Docs.cpp - The `docs` workload ----------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One thread, six grammars, one seeded multi-MB genWorkload corpus each.
/// Every round times, per grammar: CompiledParser::recognize, ::parse
/// (values), ::parseEvents, and a StreamParser run at 4 KiB chunks. The
/// corpora are larger than the caches, so the scan kernel, the residual
/// loop, the value layer, the sinks and the stream kernel do the work;
/// shard, serve and artifact code does none.
///
/// Oracle (outside timing): parse values equal Workload::Expected (arith,
/// which has none, against parseFusedInterp once per pass); recognize
/// accepts; the streamed value equals the whole-buffer value; event counts
/// repeat exactly.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/FusedInterp.h"
#include "engine/Pipeline.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;
using namespace flap;

namespace {

constexpr size_t DocsBytes = 2'000'000;
constexpr size_t StreamChunk = 4096;

struct DocGrammar {
  std::string Name;
  std::shared_ptr<GrammarDef> Def;
  FlapParser P;
  Workload W;
  Value Ref; ///< the expected value of a parse of W.Input
  ParseScratch Scratch;
  size_t EventCount = 0;
  size_t CarryHw = 0;
  std::vector<double> TRec, TParse, TEv, TStream;

  std::shared_ptr<void> freshCtx() const {
    return Def->NewCtx ? Def->NewCtx() : nullptr;
  }
};

/// One StreamParser run over \p In at StreamChunk-byte chunks.
Result<Value> streamOnce(DocGrammar &G, size_t &CarryHw) {
  Span S(SpanKind::Stream);
  auto Ctx = G.freshCtx();
  StreamParser SP = G.P.stream(Ctx.get());
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
  CarryHw = SP.carryHighWater();
  return SP.take();
}

} // namespace

void perfbench::runDocs(RunCtx &C) {
  Report &R = *C.R;
  const size_t Bytes = static_cast<size_t>(static_cast<double>(DocsBytes) *
                                           C.Scale);

  // Set-up: build and compile the six grammars. It runs once before the
  // rounds (the set-up measured) and once more, discarded, in every round;
  // setup_s is the 10th percentile of them all (see setupQuantile()).
  using GrammarSet = std::vector<std::unique_ptr<DocGrammar>>;
  std::vector<double> SetupS;
  std::map<std::string, std::vector<double>> CompileMs;
  std::vector<double> StageMs[4];
  auto setUp = [&](GrammarSet &Out) {
    Out.clear();
    double PhaseMs[4] = {0, 0, 0, 0};
    const int64_t T0 = nowNs();
    for (const std::string &Name : grammarOrder()) {
      auto G = std::make_unique<DocGrammar>();
      G->Name = Name;
      const int64_t G0 = nowNs();
      G->Def = makeGrammar(Name);
      Result<FlapParser> P = [&] {
        Span S(SpanKind::Compile);
        return compileFlap(G->Def);
      }();
      if (!P.ok()) {
        R.check(false, "compileFlap(" + Name + "): " + P.error());
        return false;
      }
      G->P = P.take();
      CompileMs[Name].push_back(static_cast<double>(nowNs() - G0) / 1e6);
      PhaseMs[0] += G->P.Times.TypeCheckMs;
      PhaseMs[1] += G->P.Times.NormalizeMs;
      PhaseMs[2] += G->P.Times.FuseMs;
      PhaseMs[3] += G->P.Times.CodegenMs;
      Out.push_back(std::move(G));
    }
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    for (int I = 0; I < 4; ++I)
      StageMs[I].push_back(PhaseMs[I]);
    return true;
  };
  GrammarSet Gs;
  if (!setUp(Gs))
    return;

  // Inputs and references, outside timing.
  size_t CorpusBytes = 0;
  for (auto &G : Gs) {
    G->W = genCorpus(G->Name, C.Seed, Bytes);
    CorpusBytes += G->W.Input.size();
    if (G->W.HasExpected) {
      G->Ref = G->W.Expected;
    } else {
      auto Ctx = G->freshCtx();
      Result<Value> Spec = parseFusedInterp(*G->Def->Re, G->P.F,
                                            G->Def->L->Actions, G->W.Input,
                                            Ctx.get());
      R.check(Spec.ok(), G->Name + ": parseFusedInterp rejects the corpus");
      if (Spec.ok())
        G->Ref = *Spec;
    }
  }
  R.CorpusBytes = static_cast<double>(CorpusBytes);

  // Warm-up: one call of every configuration lets the scratches, pools
  // and lazily built state reach their steady size before timing; it also
  // fixes the exact counts later rounds must repeat. One event buffer,
  // sized exactly, serves every grammar: a multi-MB corpus yields millions
  // of events, and a buffer grown by doubling would hold twice that.
  size_t MaxEvents = 0;
  for (auto &G : Gs) {
    R.check(G->P.M.recognize(G->W.Input, G->Scratch),
            G->Name + ": recognize rejects the corpus");
    std::vector<ParseEvent> Ev;
    Status St = G->P.M.parseEvents(G->P.M.Start, G->W.Input, G->Scratch, Ev);
    R.check(St.ok(), G->Name + ": parseEvents fails: " +
                         (St.ok() ? std::string() : St.error()));
    G->EventCount = Ev.size();
    MaxEvents = std::max(MaxEvents, Ev.size());
  }
  std::vector<ParseEvent> Events;
  Events.reserve(MaxEvents);

  auto checkValue = [&](DocGrammar &G, const Result<Value> &V,
                        const char *Mode) {
    R.check(V.ok() && *V == G.Ref,
            G.Name + ": " + Mode + " value " +
                (V.ok() ? V->str() : "error " + V.error()) + " != expected " +
                G.Ref.str());
  };

  std::vector<double> FloorS;
  const int64_t Start = nowNs();
  const auto Deadline = Start + static_cast<int64_t>(C.Seconds * 1e9);
  size_t Rounds = 0;
  while (Rounds < 3 || nowNs() < Deadline) {
    Span Round(SpanKind::Round);
    ++Rounds;
    if (C.PerLayer) {
      // Memory-touch floor: one pass summing every corpus byte.
      const int64_t T0 = nowNs();
      uint64_t Sum = 0;
      for (auto &G : Gs)
        for (unsigned char Ch : G->W.Input)
          Sum += Ch;
      FloorS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
      R.check(Sum != 0, "checksum pass read nothing");
    }
    for (auto &G : Gs) {
      int64_t T0 = nowNs();
      bool Ok;
      {
        Span S(SpanKind::Recognize);
        Ok = G->P.M.recognize(G->W.Input, G->Scratch);
      }
      G->TRec.push_back(static_cast<double>(nowNs() - T0) / 1e9);
      R.check(Ok, G->Name + ": recognize rejects the corpus");

      auto Ctx = G->freshCtx();
      T0 = nowNs();
      Result<Value> V = [&] {
        Span S(SpanKind::Parse);
        return G->P.M.parse(G->W.Input, G->Scratch, Ctx.get());
      }();
      G->TParse.push_back(static_cast<double>(nowNs() - T0) / 1e9);
      checkValue(*G, V, "parse");

      Events.clear();
      T0 = nowNs();
      Status St = [&] {
        Span S(SpanKind::Events);
        return G->P.M.parseEvents(G->P.M.Start, G->W.Input, G->Scratch,
                                  Events);
      }();
      G->TEv.push_back(static_cast<double>(nowNs() - T0) / 1e9);
      R.check(St.ok() && Events.size() == G->EventCount,
              G->Name + ": event count " + std::to_string(Events.size()) +
                  " != " + std::to_string(G->EventCount));

      size_t Hw = 0;
      T0 = nowNs();
      Result<Value> SV = streamOnce(*G, Hw);
      G->TStream.push_back(static_cast<double>(nowNs() - T0) / 1e9);
      checkValue(*G, SV, "stream");
      if (G->CarryHw == 0)
        G->CarryHw = Hw;
      R.check(Hw == G->CarryHw, G->Name + ": stream carry high-water moved");
    }
    GrammarSet Sample;
    setUp(Sample);
  }

  std::vector<double> RecMbps, ParseMbps, EvMbps, StreamMbps, LatUs;
  for (auto &G : Gs) {
    const double MB = static_cast<double>(G->W.Input.size()) / 1e6;
    const double Rec = MB / fastest(G->TRec), Par = MB / fastest(G->TParse),
                 Ev = MB / fastest(G->TEv), St = MB / fastest(G->TStream);
    RecMbps.push_back(Rec);
    ParseMbps.push_back(Par);
    EvMbps.push_back(Ev);
    StreamMbps.push_back(St);
    LatUs.push_back(fastest(G->TParse) * 1e6);
    std::printf("  %-6s %9zu B  recognize %7.1f  parse %7.1f  events %7.1f  "
                "stream %7.1f MB/s\n",
                G->Name.c_str(), G->W.Input.size(), Rec, Par, Ev, St);
    if (!C.PerLayer)
      continue;
    const std::string &N = G->Name;
    R.layer("engine.recognize_mbps." + N, Rec, "MB/s");
    R.layer("engine.parse_mbps." + N, Par, "MB/s");
    R.layer("engine.events_mbps." + N, Ev, "MB/s");
    R.layer("engine.stream4k_mbps." + N, St, "MB/s");
    R.layer("value.share." + N, 1.0 - fastest(G->TRec) / fastest(G->TParse),
            "ratio");
    R.layer("events.count." + N, static_cast<double>(G->EventCount),
            "count");
    R.layer("stream.carry_hw_bytes." + N, static_cast<double>(G->CarryHw),
            "bytes");
    R.layer("pipeline.compile_ms." + N, median(CompileMs[N]), "ms");
    // Pool pages of one parse into a fresh scratch; twice, so the count
    // is checked to repeat exactly.
    size_t Pages[2];
    for (size_t &Pg : Pages) {
      ParseScratch Fresh;
      auto Ctx = G->freshCtx();
      Result<Value> V = G->P.M.parse(G->W.Input, Fresh, Ctx.get());
      checkValue(*G, V, "fresh-scratch parse");
      Pg = Fresh.Pool->pageCount();
    }
    R.check(Pages[0] == Pages[1], N + ": pool page count does not repeat");
    R.layer("pool.pages." + N, static_cast<double>(Pages[0]), "count");
  }
  R.e2e("setup_s", setupQuantile(SetupS), "s");
  R.e2e("throughput_mbps", geomean(ParseMbps), "MB/s");
  R.e2e("recognize_mbps", geomean(RecMbps), "MB/s");
  R.e2e("events_mbps", geomean(EvMbps), "MB/s");
  R.e2e("stream_mbps", geomean(StreamMbps), "MB/s");
  R.e2e("latency_us", geomean(LatUs), "us");
  if (C.PerLayer) {
    R.layer("floor.checksum_mbps",
            static_cast<double>(CorpusBytes) / 1e6 / fastest(FloorS), "MB/s");
    static const char *const Stage[4] = {"typecheck", "normalize", "fuse",
                                         "stage"};
    for (int I = 0; I < 4; ++I)
      R.layer(std::string("pipeline.") + Stage[I] + "_ms", median(StageMs[I]),
              "ms");
  }
  std::printf("docs: %zu rounds over %zu corpus bytes (6 grammars)\n", Rounds,
              CorpusBytes);
}
