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
  std::set<std::vector<int32_t>> Columns;
  for (int C = 0; C < 256; ++C) {
    std::vector<int32_t> Col(Skip.size()); // one entry per state
    for (size_t S = 0; S < Col.size(); ++S)
      Col[S] = next(S, C);
    Columns.insert(std::move(Col));
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
    TierOfOld[S] = dispatchtier::tierOf(
        Classes[S],
        dispatchtier::outShape([&](int C) { return Rows[S * 256 + C]; },
                               static_cast<int32_t>(S)));
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

  // The permuted rows, in the one width the state count selects.
  auto Fill = [&](auto &Cells, auto Dead) {
    Cells.assign(NumStates * 256, Dead);
    for (size_t S = 0; S < NumStates; ++S)
      for (int C = 0; C < 256; ++C)
        if (int32_t D = Rows[S * 256 + C]; D >= 0)
          Cells[static_cast<size_t>(Perm[S]) * 256 + C] =
              static_cast<decltype(Dead)>(Perm[D]);
  };
  if (NumStates <= ScanTables::MaxSmallStates)
    Fill(T.Trans8, scankernel::Tab8::Dead);
  else
    Fill(T.Trans16, scankernel::Tab16::Dead);

  // Run-state skip metadata: the byte set on which each state loops to
  // itself (identifier/number/whitespace/string interiors).
  T.Skip.assign(NumStates, SkipSet{});
  for (size_t S = 0; S < NumStates; ++S) {
    for (int C = 0; C < 256; ++C)
      if (T.next(S, C) == static_cast<int32_t>(S))
        T.Skip[S].set(static_cast<unsigned char>(C));
    T.Skip[S].finalize();
  }
  return Perm;
}
