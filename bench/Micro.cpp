//===- bench/Micro.cpp - google-benchmark micro benchmarks ---------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// Micro-costs of the substrates: derivative computation, lexer DFA
/// construction, DFA lexing throughput, staged-machine scan throughput,
/// pipeline compile time, action dispatch, value-node build/free and
/// the sinks' per-record writes.
///
//===----------------------------------------------------------------------===//

#include "engine/Pipeline.h"
#include "engine/Sink.h"
#include "grammars/Grammars.h"
#include "lexer/CompiledLexer.h"
#include "regex/RegexParser.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <functional>

using namespace flap;

namespace {

void BM_RegexDerivativeCold(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    RegexArena A; // fresh arena: no memo hits
    RegexId Re = mustParseRegex(
        A, "-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+\\-]?[0-9]+)?");
    State.ResumeTiming();
    RegexId Cur = Re;
    for (unsigned char C : std::string_view("-123.45e+6"))
      Cur = A.derive(Cur, C);
    benchmark::DoNotOptimize(Cur);
  }
}
BENCHMARK(BM_RegexDerivativeCold);

void BM_RegexDerivativeMemoized(benchmark::State &State) {
  RegexArena A;
  RegexId Re = mustParseRegex(
      A, "-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+\\-]?[0-9]+)?");
  for (auto _ : State) {
    RegexId Cur = Re;
    for (unsigned char C : std::string_view("-123.45e+6"))
      Cur = A.derive(Cur, C);
    benchmark::DoNotOptimize(Cur);
  }
}
BENCHMARK(BM_RegexDerivativeMemoized);

void BM_RegexEquivalence(benchmark::State &State) {
  for (auto _ : State) {
    RegexArena A;
    RegexId R1 = mustParseRegex(A, "(a|b)*abb");
    RegexId R2 = mustParseRegex(A, "(a|b)*abb&~()");
    benchmark::DoNotOptimize(A.equivalent(R1, R2));
  }
}
BENCHMARK(BM_RegexEquivalence);

void BM_LexerDfaBuild(benchmark::State &State) {
  for (auto _ : State) {
    auto Def = makeJsonGrammar();
    auto Canon = Def->Lexer->canonicalize();
    CompiledLexer Lex(*Def->Re, *Canon);
    benchmark::DoNotOptimize(Lex.numStates());
  }
}
BENCHMARK(BM_LexerDfaBuild);

void BM_LexerThroughput(benchmark::State &State) {
  auto Def = makeJsonGrammar();
  auto Canon = Def->Lexer->canonicalize();
  CompiledLexer Lex(*Def->Re, *Canon);
  Workload W = genWorkload("json", 4, 1 << 20);
  for (auto _ : State) {
    auto Toks = Lex.lexAll(W.Input);
    benchmark::DoNotOptimize(Toks.ok());
  }
  State.SetBytesProcessed(State.iterations() * W.Input.size());
}
BENCHMARK(BM_LexerThroughput);

void BM_StagedMachineThroughput(benchmark::State &State) {
  auto Def = makeJsonGrammar();
  auto P = compileFlap(Def);
  Workload W = genWorkload("json", 4, 1 << 20);
  ParseScratch Scratch;
  for (auto _ : State)
    benchmark::DoNotOptimize(P->M.recognize(W.Input, Scratch));
  State.SetBytesProcessed(State.iterations() * W.Input.size());
}
BENCHMARK(BM_StagedMachineThroughput);

void BM_PipelineCompile(benchmark::State &State) {
  for (auto _ : State) {
    auto Def = makeSexpGrammar();
    auto P = compileFlap(Def);
    benchmark::DoNotOptimize(P.ok());
  }
}
BENCHMARK(BM_PipelineCompile);

//===--------------------------------------------------------------------===//
// Action-dispatch micro-panel: the per-marker cost of the three dispatch
// mechanisms on a synthetic marker stream (a counting fold: push a
// constant, add it into an accumulator — the dominant shape of the
// benchmark grammars). Attributes the panel-A devirtualization win:
//   - StdFunction: the pre-devirtualization shape — each action a
//                  type-erased std::function (bench-local)
//   - Switch:      the tagged micro-op dispatch (ValueStack::applyMicro)
//   - FusedChain:  a pre-fused ε-chain block (ValueStack::runChain)
//===--------------------------------------------------------------------===//

struct DispatchRig {
  ActionTable AT;
  ActionId One, Add;
  ParseContext Ctx{std::string_view(), nullptr, 0, nullptr};
  ValueStack VS;

  DispatchRig() {
    One = AT.addConst(Value::integer(1), "one");
    Add = AT.addAddArgs(2, 0, 1, "add");
    VS.push(Value::integer(0)); // accumulator
  }
};

void BM_ActionDispatchStdFunction(benchmark::State &State) {
  DispatchRig R;
  using BoxedFn = std::function<Value(ParseContext &, Value *)>;
  const BoxedFn One = [](ParseContext &, Value *) {
    return Value::integer(1);
  };
  const BoxedFn Add = [](ParseContext &, Value *Args) {
    return Value::integer(Args[0].asInt() + Args[1].asInt());
  };
  for (auto _ : State) {
    R.VS.push(One(R.Ctx, nullptr));
    Value Args[2];
    Args[1] = R.VS.pop();
    Args[0] = R.VS.pop();
    R.VS.push(Add(R.Ctx, Args));
    benchmark::DoNotOptimize(R.VS.data());
  }
  State.SetItemsProcessed(State.iterations() * 2);
}
BENCHMARK(BM_ActionDispatchStdFunction);

void BM_ActionDispatchSwitch(benchmark::State &State) {
  DispatchRig R;
  for (auto _ : State) {
    R.VS.applyMicro(R.AT, R.One, R.Ctx);
    R.VS.applyMicro(R.AT, R.Add, R.Ctx);
    benchmark::DoNotOptimize(R.VS.data());
  }
  State.SetItemsProcessed(State.iterations() * 2);
}
BENCHMARK(BM_ActionDispatchSwitch);

void BM_ActionDispatchFusedChain(benchmark::State &State) {
  DispatchRig R;
  const ActionId Chain[] = {R.One, R.Add, R.One, R.Add, R.One, R.Add,
                            R.One, R.Add};
  for (auto _ : State) {
    R.VS.runChain(R.AT, Chain, 8, /*MaxGrow=*/1, R.Ctx);
    benchmark::DoNotOptimize(R.VS.data());
  }
  State.SetItemsProcessed(State.iterations() * 8);
}
BENCHMARK(BM_ActionDispatchFusedChain);

//===--------------------------------------------------------------------===//
// Value-node micro-panel: the cost to build and free one pair node, the
// unit of work behind arith's AST actions. Pooled draws the node from a
// warmed ValuePool freelist (the parse path); heap takes the global
// allocator (the reference path and the baselines).
//===--------------------------------------------------------------------===//

void BM_PooledPair(benchmark::State &State, bool Pooled) {
  const ValuePoolRef Pool = Pooled ? ValuePool::create() : nullptr;
  int64_t I = 0;
  for (auto _ : State) {
    Value V = Value::pair(Pool, Value::integer(I), Value::integer(I + 1));
    benchmark::DoNotOptimize(V);
    ++I;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK_CAPTURE(BM_PooledPair, pooled, true);
BENCHMARK_CAPTURE(BM_PooledPair, heap, false);

//===--------------------------------------------------------------------===//
// Sink-write micro-panel: the cost of appending one SAX event and of
// pushing one token value, built in place (the library: EventSink's
// hooks, ValueStack::pushToken) against a bench-local copy of the old
// build-then-copy shape (a local record copied in by push_back/push),
// kept as the measured "before" the way prePRWalk keeps the pre-PR walk.
// The old shape reloads each record with loads wider than the stores
// that just built it, which store-to-load forwarding cannot serve.
//===--------------------------------------------------------------------===//

/// The event hooks as they were before they wrote in place.
struct CopyingEventSink {
  std::string_view Input;
  std::vector<ParseEvent> *Out;

  void enter(NtId N) {
    ParseEvent E;
    E.KindId = ParseEvent::pack(EventKind::Enter, N);
    Out->push_back(E);
  }
  void token(uint64_t Meta, uint64_t Begin, uint64_t End) {
    const uint32_t Tok = CompiledParser::metaTok(Meta);
    if (Tok == CompiledParser::MetaNoTok)
      return;
    ParseEvent E;
    E.Begin = Begin;
    E.TextData = Input.data() + Begin;
    E.Len = static_cast<uint32_t>(End - Begin);
    E.KindId = ParseEvent::pack(EventKind::Token, Tok);
    Out->push_back(E);
  }
  void marker(uint32_t OpIdx) {
    ParseEvent E;
    E.KindId = ParseEvent::pack(EventKind::Reduce, OpIdx);
    Out->push_back(E);
  }
  void eps(NtId N, int32_t) {
    ParseEvent E;
    E.KindId = ParseEvent::pack(EventKind::Eps, N);
    Out->push_back(E);
  }
};

constexpr size_t SinkBlock = 1024; ///< hook calls per timed iteration

/// Appends SinkBlock events, the four kinds in turn, into a warm vector.
template <typename Sink>
void appendEvents(Sink &S, std::vector<ParseEvent> &Out, uint32_t Salt) {
  Out.clear();
  const uint64_t Meta = uint64_t(3) << 48; // token id 3
  for (uint32_t I = 0; I < SinkBlock; I += 4) {
    S.enter(I ^ Salt);
    S.token(Meta, I, I + 2);
    S.marker(I ^ Salt);
    S.eps(I ^ Salt, 0);
  }
  benchmark::DoNotOptimize(Out.data());
  benchmark::ClobberMemory();
}

void BM_EventSinkAppend(benchmark::State &State, bool InPlace) {
  const std::string Input(SinkBlock + 2, 'x');
  std::vector<ParseEvent> Out;
  Out.reserve(SinkBlock);
  EventSink Lib(Input, &Out);
  CopyingEventSink Old{Input, &Out};
  uint32_t Salt = 0;
  for (auto _ : State) {
    if (InPlace)
      appendEvents(Lib, Out, ++Salt);
    else
      appendEvents(Old, Out, ++Salt);
  }
  State.SetItemsProcessed(State.iterations() * SinkBlock);
}
BENCHMARK_CAPTURE(BM_EventSinkAppend, in_place, true);
BENCHMARK_CAPTURE(BM_EventSinkAppend, build_then_copy, false);

void BM_ValueStackPushToken(benchmark::State &State, bool InPlace) {
  ValueStack VS;
  uint32_t Salt = 0;
  for (auto _ : State) {
    VS.clear();
    ++Salt;
    for (uint32_t I = 0; I < SinkBlock; ++I) {
      if (InPlace)
        VS.pushToken(3, I ^ Salt, I + 2);
      else
        VS.push(Value::token(3, I ^ Salt, I + 2));
    }
    benchmark::DoNotOptimize(VS.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * SinkBlock);
}
BENCHMARK_CAPTURE(BM_ValueStackPushToken, in_place, true);
BENCHMARK_CAPTURE(BM_ValueStackPushToken, build_then_copy, false);

} // namespace

BENCHMARK_MAIN();
