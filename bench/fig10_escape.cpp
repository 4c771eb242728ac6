//===- bench/fig10_escape.cpp - Paper Figure 10 -------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 10: escape@1/10/50 ratio of the T-III vulnerable functions under
/// six obfuscations (Fla at 100% here, per the paper), for VulSeeker,
/// Asm2Vec and SAFE. Higher = better hiding. EvalScheduler::vulnRankMatrix
/// fans the (cell × tool) task plane over the pool; the three tools of one
/// cell share the cell's cached image pair instead of rebuilding it.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace khaos;

int main(int argc, char **argv) {
  EvalScheduler Sched(parseSchedulerArgs(argc, argv));
  requireUnsharded(Sched, "fig10_escape");
  printHeader("Figure 10",
              "escape@k of vulnerable functions on T-III (higher = better "
              "hiding)");

  std::vector<Workload> Suite = vulnerableSuite();
  const std::vector<ObfuscationMode> Modes = {
      ObfuscationMode::Sub,     ObfuscationMode::Bog,
      ObfuscationMode::Fla,     ObfuscationMode::FuFiSep,
      ObfuscationMode::FuFiOri, ObfuscationMode::FuFiAll};
  const std::vector<std::string> Tools = {"VulSeeker", "Asm2Vec", "SAFE"};
  const unsigned Ks[] = {1, 10, 50};

  EvalRunStats Run;
  std::vector<EvalScheduler::CellRanks> Cells =
      Sched.vulnRankMatrix(Suite, Modes, Tools, &Run);

  // ranks[tool][mode] -> all vulnerable-function ranks, aggregated in
  // row-major matrix order so the result is independent of worker
  // completion order.
  std::vector<std::vector<std::vector<uint32_t>>> Ranks(
      Tools.size(), std::vector<std::vector<uint32_t>>(Modes.size()));
  for (size_t WI = 0; WI != Suite.size(); ++WI)
    for (size_t MI = 0; MI != Modes.size(); ++MI) {
      const EvalScheduler::CellRanks &Cell = Cells[WI * Modes.size() + MI];
      if (!Cell.Ok)
        continue;
      for (size_t TI = 0; TI != Tools.size(); ++TI)
        Ranks[TI][MI].insert(Ranks[TI][MI].end(), Cell.PerTool[TI].begin(),
                             Cell.PerTool[TI].end());
    }

  for (unsigned K : Ks) {
    TableRenderer Table(modeHeaders({"tool"}, Modes));
    for (size_t TI = 0; TI != Tools.size(); ++TI) {
      std::vector<std::string> Row{Tools[TI]};
      for (size_t MI = 0; MI != Modes.size(); ++MI) {
        double Escaped = 0.0;
        for (uint32_t R : Ranks[TI][MI])
          if (R > K)
            Escaped += 1.0;
        Row.push_back(TableRenderer::fmtRatio(
            Ranks[TI][MI].empty() ? 0.0
                                  : Escaped / Ranks[TI][MI].size()));
      }
      Table.addRow(std::move(Row));
    }
    std::printf("\nescape@%u\n", K);
    Table.print();
  }
  reportScheduler(Sched, Run);
  return 0;
}
