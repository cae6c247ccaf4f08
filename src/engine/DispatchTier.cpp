//===- engine/DispatchTier.cpp - The shared scan-table build -------------===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "engine/DispatchTier.h"

#include <cassert>
#include <set>

using namespace flap;

int ScanTables::numClasses() const {
  const size_t NumStates = Trans16.size() / 256;
  std::set<std::vector<int16_t>> Columns;
  std::vector<int16_t> Col(NumStates);
  for (int C = 0; C < 256; ++C) {
    for (size_t S = 0; S < NumStates; ++S)
      Col[S] = Trans16[S * 256 + C];
    Columns.insert(Col);
  }
  return static_cast<int>(Columns.size());
}

std::vector<int32_t>
flap::buildScanTables(ScanTables &T, const std::vector<int32_t> &Rows,
                      const std::vector<dispatchtier::AcceptClass> &Classes) {
  const size_t NumStates = Classes.size();
  assert(Rows.size() == NumStates * 256 && "one 256-entry row per state");
  assert(NumStates <= (size_t(1) << 15) && "state ids must fit int16");

  // Dispatch-tier renumbering: tier by tier, old ids in order.
  std::vector<int> TierOfOld(NumStates);
  for (size_t S = 0; S < NumStates; ++S)
    TierOfOld[S] = dispatchtier::tierOf(Classes[S],
                                        dispatchtier::outShape(Rows, S));
  int32_t *const Ends[5] = {&T.Tiers.PureSkip, &T.Tiers.SelfSkip,
                            &T.Tiers.TermAcc, &T.Tiers.PureAcc,
                            &T.Tiers.Accept};
  std::vector<int32_t> Perm(NumStates);
  int32_t NextId = 0;
  for (int Tier = 0; Tier <= 5; ++Tier) {
    for (size_t S = 0; S < NumStates; ++S)
      if (TierOfOld[S] == Tier)
        Perm[S] = NextId++;
    if (Tier < 5)
      *Ends[Tier] = NextId;
  }

  T.Trans16.assign(NumStates * 256, static_cast<int16_t>(-1));
  for (size_t S = 0; S < NumStates; ++S)
    for (int C = 0; C < 256; ++C) {
      int32_t D = Rows[S * 256 + C];
      if (D >= 0)
        T.Trans16[static_cast<size_t>(Perm[S]) * 256 + C] =
            static_cast<int16_t>(Perm[D]);
    }

  // Run-state skip metadata: the byte set on which each state loops to
  // itself (identifier/number/whitespace/string interiors).
  T.Skip.assign(NumStates, SkipSet{});
  for (size_t S = 0; S < NumStates; ++S) {
    for (int C = 0; C < 256; ++C)
      if (T.Trans16[S * 256 + C] == static_cast<int32_t>(S))
        T.Skip[S].set(static_cast<unsigned char>(C));
    T.Skip[S].finalize();
  }

  T.Trans8.clear();
  if (NumStates <= ScanTables::MaxSmallStates) {
    T.Trans8.assign(NumStates * 256, ScanTables::Dead8);
    for (size_t I = 0; I < NumStates * 256; ++I)
      if (T.Trans16[I] >= 0)
        T.Trans8[I] = static_cast<uint8_t>(T.Trans16[I]);
  }
  return Perm;
}
