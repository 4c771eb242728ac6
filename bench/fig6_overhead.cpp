//===- bench/fig6_overhead.cpp - Paper Figure 6 -----------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 6: runtime overhead of Fission / Fusion / FuFi.sep / FuFi.ori /
/// FuFi.all on every SPEC CPU 2006 and 2017 C/C++ benchmark (plus the
/// geometric mean), measured as the VM dynamic-cost ratio against the
/// O2+LTO baseline. The (workload × mode) matrix runs on the EvalScheduler
/// pool; pass --threads N to size it. Output is identical at every N and
/// cache setting; sharded runs (--shards/--shard-index) emit sortable
/// per-cell lines (as does --print-cells) that merge losslessly.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace khaos;

namespace {

void runSuite(const EvalScheduler &Sched, const char *Caption,
              const char *MatrixId, bool CellMode,
              const std::vector<Workload> &Suite) {
  const std::vector<ObfuscationMode> Modes = {
      ObfuscationMode::Fission, ObfuscationMode::Fusion,
      ObfuscationMode::FuFiSep, ObfuscationMode::FuFiOri,
      ObfuscationMode::FuFiAll};

  EvalRunStats Run;
  std::vector<EvalScheduler::CellOverhead> Cells =
      Sched.overheadMatrix(Suite, Modes, &Run);

  if (CellMode) {
    printOverheadCellLines(MatrixId, Cells, Suite, Modes);
    reportScheduler(Sched, Run);
    return;
  }

  // Aggregate in row-major matrix order: the per-mode series (and thus the
  // floating-point geomean) is independent of worker completion order.
  TableRenderer Table(modeHeaders({"benchmark"}, Modes));
  SeriesAccumulator PerMode(Modes.size());
  for (size_t WI = 0; WI != Suite.size(); ++WI) {
    std::vector<std::string> Row{Suite[WI].Name};
    for (size_t MI = 0; MI != Modes.size(); ++MI) {
      const EvalScheduler::CellOverhead &Cell =
          Cells[WI * Modes.size() + MI];
      if (Cell.Ok) {
        PerMode.add(MI, WI, Cell.Percent);
        Row.push_back(TableRenderer::fmtPercent(Cell.Percent));
      } else {
        Row.push_back("n/a");
      }
    }
    Table.addRow(std::move(Row));
  }
  std::vector<std::string> Geo{"GEOMEAN"};
  for (size_t MI = 0; MI != Modes.size(); ++MI)
    Geo.push_back(
        TableRenderer::fmtPercent(geomeanOverheadPercent(PerMode.series(MI))));
  Table.addRow(std::move(Geo));

  std::printf("\n%s\n", Caption);
  Table.print();
  reportScheduler(Sched, Run);
}

} // namespace

int main(int argc, char **argv) {
  bool PrintCells = false;
  EvalScheduler Sched(
      parseSchedulerArgs(argc, argv, {printCellsFlag(PrintCells)}));
  const bool CellMode = PrintCells || Sched.shardCount() > 1;
  if (!CellMode)
    printHeader("Figure 6",
                "runtime overhead of the Khaos modes on SPEC CPU 2006/2017");
  runSuite(Sched, "SPEC CPU 2006 C/C++ (ref-like input)", "M0", CellMode,
           maybeThin(specCpu2006Suite()));
  runSuite(Sched, "SPEC CPU 2017 C/C++ (ref-like input)", "M1", CellMode,
           maybeThin(specCpu2017Suite()));
  return 0;
}
