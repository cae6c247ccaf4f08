//===- examples/sax_events.cpp - SAX event-mode streaming ---------------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
//
// The EventSink policy (engine/Sink.h) end to end: stream an arith
// program through a StreamParser whose ParseRequest asks for events,
// draining the stream's ParseOutcome after every chunk. Each token's
// text is copied at match time into the arena the drained outcome owns
// (ParseOutcome::Text) — so the parser never retains input beyond the
// in-progress lexeme: watch the carry high-water stay lexeme-sized while
// the document grows.
//
//===----------------------------------------------------------------------===//

#include "engine/Stream.h"
#include "grammars/Grammars.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace flap;

int main() {
  auto Def = makeArithGrammar();
  auto PR = compileFlap(Def);
  if (!PR.ok()) {
    std::fprintf(stderr, "compile: %s\n", PR.error().c_str());
    return 1;
  }
  FlapParser P = PR.take();

  Workload W = genWorkload("arith", 7, 64 * 1024);

  ParseRequest Req;
  Req.Mode = ParseMode::Events;
  StreamParser SP = P.stream(Req);

  size_t Counts[4] = {0, 0, 0, 0}; // Enter, Token, Reduce, Eps
  size_t Shown = 0;
  auto Drain = [&] {
    const ParseOutcome O = SP.drain(); // owns its events' text
    for (const ParseEvent &E : O.Events) {
      ++Counts[static_cast<int>(E.kind())];
      if (Shown < 12) { // a taste of the stream
        switch (E.kind()) {
        case EventKind::Enter:
          std::printf("  Enter  %s\n", P.M.NtNames[E.nt()].c_str());
          break;
        case EventKind::Token:
          std::printf("  Token  %s @%llu-%llu '%.*s'\n",
                      Def->Toks->name(E.tok()).c_str(),
                      static_cast<unsigned long long>(E.Begin),
                      static_cast<unsigned long long>(E.end()),
                      static_cast<int>(E.text().size()), E.text().data());
          break;
        case EventKind::Reduce:
          std::printf("  Reduce op#%u\n", E.op());
          break;
        case EventKind::Eps:
          std::printf("  Eps    %s\n", P.M.NtNames[E.nt()].c_str());
          break;
        }
        ++Shown;
      }
    }
  };

  const size_t Chunk = 4096;
  for (size_t At = 0; At < W.Input.size(); At += Chunk) {
    if (SP.feed(std::string_view(W.Input).substr(At, Chunk)) ==
        StreamStatus::Error)
      break;
    Drain();
  }
  SP.finish();
  Drain();

  if (SP.status() != StreamStatus::Done) {
    std::fprintf(stderr, "parse: %s\n", SP.take().error().c_str());
    return 1;
  }
  std::printf("\n%zu bytes streamed in %zu-byte chunks\n", W.Input.size(),
              Chunk);
  std::printf("events: %zu Enter, %zu Token, %zu Reduce, %zu Eps\n",
              Counts[0], Counts[1], Counts[2], Counts[3]);
  std::printf("carry high-water: %zu bytes (the in-progress lexeme — not "
              "the document)\n",
              SP.carryHighWater());
  return 0;
}
