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
/// has the shape of the paper's excerpt: one function per machine state,
/// character-class `case` arms (ranges, not single bytes), tail calls
/// between states, and an end-of-input check folded into the scan. The
/// emitted entry point
///
///   extern "C" long <name>_parse(const char *s, size_t len);
///
/// is a recognizer returning the number of non-skip lexemes consumed, or
/// -1 on a parse error. The function count equals
/// CompiledParser::numStates() — Table 1's "Output Functions".
///
/// Every generated parser also carries the event entry point — the
/// generated analogue of the library's EventSink policy (engine/Sink.h):
///
///   extern "C" long <name>_parse_events(const char *s, size_t len,
///       void (*ev)(void *user, int kind, long id, long begin, long end),
///       void *user);
///
/// The callback receives the SAX stream — Enter (kind 0, nonterminal
/// id), Token (kind 1, token id over the [begin, end) span), Reduce
/// (kind 2, ActionId) and Eps (kind 3, nonterminal id) — over the
/// *unrewritten* symbol stream (no dead-token elision; the stream the
/// Fig. 9 reference interpreter runs), so replaying token pushes and
/// action applications in order reproduces the semantic value. Returns
/// the event count, or -1 on a parse error.
///
/// When every semantic action of the grammar compiles to a scalar
/// micro-op (constants, selection, integer accumulation — i.e. no
/// custom callables), the emitter additionally generates
///
///   extern "C" long <name>_parse_value(const char *s, size_t len,
///                                      long *out);
///
/// a value machine running the same tagged switch dispatch the library
/// engines use (cfe/Action.h MicroOp): a long-valued stack, a static
/// action table, ε-chain programs, and token placeholders. Returns 0
/// and writes the semantic value (exact for integer-valued grammars
/// like sexp/json/csv), or -1 on a parse error.
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
