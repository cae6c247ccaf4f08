//===- codegen/CppEmitter.h - Emit the staged parser as C++ ----*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a CompiledParser as a standalone C++ translation unit — the
/// analogue of the code MetaOCaml generates for flap (§5.5). The output
/// has the shape of the paper's excerpt: one function per machine state
/// (the function count equals CompiledParser::numStates() — Table 1's
/// "Output Functions"), character-class `case` arms (ranges, not single
/// bytes), tail calls between states, and an end-of-input check folded
/// into the scan. A state function returns the best accepting state it
/// reached (a state accepts iff its id is below Scan.Tiers.Accept) and
/// where that match ends.
///
/// The file carries ONE residual loop, `template <class K> long
/// drive(...)`, over the library's own packed tables — AccMeta and
/// PackedPool, or AccNtMeta and NtPool, the OpPool occurrences and the
/// ε-programs — under the sink contract of the library's driveImpl
/// (engine/Sink.h): K::Markers picks the pool, K::Enters asks for a call
/// per scan, and enter/token/marker/eps say what a scan, a lexeme, a
/// marker and an ε-fallback mean. Each entry point below is that loop
/// instantiated with one small sink:
///
///   extern "C" long <name>_parse(const char *s, size_t len);
///
/// is a recognizer returning the number of non-skip lexemes consumed, or
/// -1 on a parse error.
///
///   extern "C" long <name>_parse_events(const char *s, size_t len,
///       void (*ev)(void *user, int kind, long id, long begin, long end),
///       void *user);
///
/// reports exactly the library EventSink stream (ParseEvent, engine/
/// Compile.h) through the callback, which may be null: Enter (kind 0,
/// nonterminal id), Token (kind 1, token id over the [begin, end) span),
/// Reduce (kind 2, an OpPool index) and Eps (kind 3, nonterminal id); a
/// token erased by dead-token elision emits nothing, and every kind but
/// Token reports begin = end = 0. Returns the event count, or -1 on a
/// parse error — after delivering the events a failed library run keeps.
///
/// When every op the machine runs compiles to a scalar micro-op
/// (constants, selection, integer accumulation — no custom callables, no
/// lexeme text), the emitter additionally generates
///
///   extern "C" long <name>_parse_value(const char *s, size_t len,
///                                      long *out);
///
/// a value machine running the same tagged switch dispatch the library
/// engines use (cfe/Action.h MicroOp): a long-valued stack, 0
/// placeholders for tokens. Returns 0 and writes the semantic value
/// (exact for integer-valued grammars like sexp and json), or -1 on a
/// parse error.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_CODEGEN_CPPEMITTER_H
#define FLAP_CODEGEN_CPPEMITTER_H

#include "engine/Compile.h"

#include <string>

namespace flap {

/// Emits the complete translation unit. \p Name must be a valid C
/// identifier prefix.
std::string emitCpp(const CompiledParser &M, const std::string &Name);

} // namespace flap

#endif // FLAP_CODEGEN_CPPEMITTER_H
