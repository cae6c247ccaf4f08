//===- engine/FusedInterp.h - Fused-grammar parsing (Fig. 9) ---*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parsing algorithm for fused grammars (paper Fig. 9): a blend of
/// the lexing algorithm (derivative sets, best-match register) and the
/// DGNF parser (nonterminal sequences), operating directly on characters
/// and never materializing a token. Derivatives are computed *during*
/// parsing — this is deliberately the unstaged algorithm, "practically
/// inefficient" (§5.4); it exists as the executable specification for the
/// staged machine (the only one: engine/README.md "Reference and
/// differential testing") and as the "unstaged fused" ablation point.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_FUSEDINTERP_H
#define FLAP_ENGINE_FUSEDINTERP_H

#include "cfe/Action.h"
#include "core/Fuse.h"
#include "support/Result.h"

#include <string_view>

namespace flap {

/// Parses \p Input with the fused grammar from \p Entry (NoNt: F.Start),
/// evaluating actions with heap (unpooled) values. Trailing
/// skip-matching input (e.g. a final newline) is absorbed, mirroring what
/// a separate lexer would do. Failures render through the engine's
/// formatter (engine/Diagnostic.h); with the grammar's \p Tokens the
/// expected-token sets match too, so the error string equals the staged
/// machine's byte for byte, and the differential suites compare the
/// engine against it verbatim.
Result<Value> parseFusedInterp(RegexArena &Arena, const FusedGrammar &F,
                               const ActionTable &Actions,
                               std::string_view Input, void *User = nullptr,
                               NtId Entry = NoNt,
                               const TokenSet *Tokens = nullptr);

} // namespace flap

#endif // FLAP_ENGINE_FUSEDINTERP_H
