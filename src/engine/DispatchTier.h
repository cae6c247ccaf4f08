//===- engine/DispatchTier.h - The shared scan-table set -------*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scan-table set shared by the staged machine (engine/Compile.cpp)
/// and the standalone lexer DFA (lexer/CompiledLexer.cpp): the
/// byte-indexed transition tables, the run-skip sets and the
/// dispatch-tier bounds the scan kernel (engine/ScanKernel.h) runs on.
/// Both machines hold one ScanTables and fill it through the one
/// buildScanTables(); the table audit (engine/Verify.cpp) and the
/// artifact sections (engine/Artifact.cpp) each handle it once, for both.
///
/// Both machines renumber their states so one transition load
/// classifies a lexeme's entry — the soundness of every first-byte
/// dispatch fast path depends on that encoding, so the shape
/// classification and the tier partition live here, once.
///
/// Tiers, in id order (see Compile.h for the range semantics):
///
///   0  self-skip accepting, outgoing ⊆ self-loop  (pure F2 whitespace run)
///   1  other self-skip accepting
///   2  accepting, no outgoing at all              (terminal accept)
///   3  accepting, outgoing ⊆ nonempty self-loop   (pure accepting run)
///   4  other accepting
///   5  non-accepting
///
/// A machine with no self-skip continuations (the lexer) simply never
/// produces accept class 0, and its PureSkip/SelfSkip bounds come out 0
/// — the encoding degenerates to terminal / pure-run / accepting / rest.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_ENGINE_DISPATCHTIER_H
#define FLAP_ENGINE_DISPATCHTIER_H

#include "engine/RunSkip.h"
#include "engine/TableStore.h"

#include <cstdint>
#include <vector>

namespace flap {
namespace dispatchtier {

/// Tier range bounds over the renumbered id space:
/// [0, PureSkip) ⊆ [0, SelfSkip) ⊆ ... ⊆ [0, Accept) ⊆ [0, NumStates).
/// The scan kernels take it by value and unpack it into scalars before
/// the per-byte loop.
struct Bounds {
  int32_t PureSkip = 0;
  int32_t SelfSkip = 0;
  int32_t TermAcc = 0;
  int32_t PureAcc = 0;
  int32_t Accept = 0;
};

/// Accept classification of a pre-renumbering state.
enum class AcceptClass : uint8_t {
  SelfSkip, ///< accepts an F2 whitespace (self-skip) continuation
  Regular,  ///< accepts a regular continuation / rule
  None      ///< not accepting
};

/// Outgoing shape of state \p S over its per-byte row Rows[S*256 + C]
/// (negative = dead): 0 = no transitions, 1 = self-loop only,
/// 2 = general. The shape half of the tier classification, exposed so
/// the table verifier (engine/Verify.cpp) re-derives each state's tier
/// through the exact code that assigned it.
template <typename RowsT> int outShape(const RowsT &Rows, size_t S) {
  bool Any = false, Other = false;
  for (int C = 0; C < 256; ++C) {
    int32_t D = Rows[S * 256 + C];
    if (D < 0)
      continue;
    Any = true;
    Other |= D != static_cast<int32_t>(S);
  }
  return Other ? 2 : (Any ? 1 : 0);
}

/// Tier index (0..5, the id-order tiers of the file comment) from an
/// accept class and an outgoing shape. This pairing with outShape() IS
/// the encoding; buildScanTables() and the verifier share it.
inline int tierOf(AcceptClass A, int Shape) {
  if (A == AcceptClass::None)
    return 5;
  if (A == AcceptClass::SelfSkip)
    return Shape <= 1 ? 0 : 1; // pure self-skip run : other self-skip
  if (Shape == 0)
    return 2; // terminal accept
  if (Shape == 1)
    return 3; // pure accepting run
  return 4;
}

/// Tier of renumbered state id \p S under bounds \p B — the inverse
/// map the verifier compares tierOf() against.
inline int tierOfId(const Bounds &B, int32_t S) {
  if (S < B.PureSkip)
    return 0;
  if (S < B.SelfSkip)
    return 1;
  if (S < B.TermAcc)
    return 2;
  if (S < B.PureAcc)
    return 3;
  if (S < B.Accept)
    return 4;
  return 5;
}

} // namespace dispatchtier

/// One machine's scan tables: everything the scan kernel reads.
struct ScanTables {
  /// [State*256 + Byte] → next state, or -1 (dead): the int16 hot-loop
  /// table. Under the dispatch-tier encoding every state's 256-entry row
  /// is also its first-byte dispatch table: no separate array is
  /// materialized, so dispatch costs zero extra cache footprint.
  Table<int16_t> Trans16;
  /// The same function narrowed to uint8 (sentinel Dead8) when the
  /// machine has at most MaxSmallStates states (every benchmark grammar
  /// and lexer): fits L1. Empty otherwise.
  Table<uint8_t> Trans8;
  /// [State] → the bytes on which the state loops to itself (lexeme
  /// interiors); the scan hands those runs to the bulk classifier.
  Table<SkipSet> Skip;
  dispatchtier::Bounds Tiers;

  static constexpr uint8_t Dead8 = 0xff;
  /// 8-bit table cutoff: state ids must leave 0xff free for Dead8, so at
  /// most 255 states (max id 254) may select Trans8. A 256-state machine
  /// would alias state id 255 with the sentinel.
  static constexpr size_t MaxSmallStates = 255;

  /// Distinct byte columns of Trans16 — the machine's character classes
  /// (§5.5). Counted on demand: a cold path for reports and tests.
  int numClasses() const;
};

/// Fills \p T from a machine's pre-renumbering per-byte rows
/// (Rows[S*256 + C], negative = dead) and per-state accept classes
/// (\p Classes, one per state): renumbers the states into the
/// dispatch tiers, writes the permuted rows to Trans16 (and to Trans8
/// under the MaxSmallStates cutoff), derives each state's exact skip
/// set and records the tier bounds. The permutation is stable within
/// each tier (ids sorted by old id), so the build is deterministic.
/// \returns Perm with Perm[old] = new, so the caller can remap its own
/// accept data and start states.
std::vector<int32_t>
buildScanTables(ScanTables &T, const std::vector<int32_t> &Rows,
                const std::vector<dispatchtier::AcceptClass> &Classes);

} // namespace flap

#endif // FLAP_ENGINE_DISPATCHTIER_H
