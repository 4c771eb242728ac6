//===- bench/fig7_ollvm_overhead.cpp - Paper Figure 7 ------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 7: geometric-mean runtime overhead of O-LLVM (Sub, Bog, Fla,
/// Fla-10) next to the Khaos configurations, on SPEC CPU 2006 and 2017.
/// Each suite's (workload × mode) matrix fans out on the EvalScheduler
/// pool (--threads N); the shared pipeline builds and runs each baseline
/// once and reuses it across all nine modes. Output is identical at every
/// thread count and cache setting; sharded runs (--shards/--shard-index)
/// emit sortable per-cell lines (as does --print-cells) that merge
/// losslessly.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace khaos;

int main(int argc, char **argv) {
  bool PrintCells = false;
  EvalScheduler Sched(
      parseSchedulerArgs(argc, argv, {printCellsFlag(PrintCells)}));
  const bool CellMode = PrintCells || Sched.shardCount() > 1;
  if (!CellMode)
    printHeader("Figure 7",
                "O-LLVM vs Khaos geomean overhead (SPEC CPU 2006/2017)");

  const std::vector<ObfuscationMode> Modes = {
      ObfuscationMode::Sub,     ObfuscationMode::Bog,
      ObfuscationMode::Fla,     ObfuscationMode::Fla10,
      ObfuscationMode::Fission, ObfuscationMode::Fusion,
      ObfuscationMode::FuFiSep, ObfuscationMode::FuFiOri,
      ObfuscationMode::FuFiAll};

  struct SuiteDef {
    const char *Name;
    std::vector<Workload> Programs;
  };
  std::vector<SuiteDef> Suites;
  Suites.push_back({"SPEC CPU 2006", maybeThin(specCpu2006Suite())});
  Suites.push_back({"SPEC CPU 2017", maybeThin(specCpu2017Suite())});

  TableRenderer Table(modeHeaders({"suite"}, Modes));
  std::vector<std::vector<double>> All(Modes.size());

  EvalRunStats Run;
  for (size_t SI = 0; SI != Suites.size(); ++SI) {
    const SuiteDef &S = Suites[SI];
    std::vector<EvalScheduler::CellOverhead> Cells =
        Sched.overheadMatrix(S.Programs, Modes, &Run);
    if (CellMode) {
      printOverheadCellLines(SI == 0 ? "M0" : "M1", Cells, S.Programs,
                             Modes);
      continue;
    }
    // Aggregate in row-major matrix order: the per-mode series (and thus
    // the geomean) is independent of worker completion order.
    std::vector<std::string> Row{S.Name};
    for (size_t MI = 0; MI != Modes.size(); ++MI) {
      std::vector<double> Ovs;
      for (size_t WI = 0; WI != S.Programs.size(); ++WI) {
        const EvalScheduler::CellOverhead &Cell =
            Cells[WI * Modes.size() + MI];
        if (Cell.Ok) {
          Ovs.push_back(Cell.Percent);
          All[MI].push_back(Cell.Percent);
        }
      }
      Row.push_back(
          TableRenderer::fmtPercent(geomeanOverheadPercent(Ovs)));
    }
    Table.addRow(std::move(Row));
  }
  if (!CellMode) {
    std::vector<std::string> Geo{"GEOMEAN"};
    for (size_t MI = 0; MI != Modes.size(); ++MI)
      Geo.push_back(
          TableRenderer::fmtPercent(geomeanOverheadPercent(All[MI])));
    Table.addRow(std::move(Geo));
    Table.print();
  }
  reportScheduler(Sched, Run);
  return 0;
}
