//===- bench/fig8_precision.cpp - Paper Figure 8 ------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 8: Precision@1 of the diffing tools against every obfuscation
/// mode (the paper's eight plus MBA, StrEnc, IndCall and SplitBB),
/// averaged over T-I (SPEC) + T-II (CoreUtils). The
/// default roster is the paper's five; `--tools` swaps in any registered
/// backend (e.g. `--tools jtrans,orcas` for the post-paper rows). DeepBinDiff runs on the reduced suite, mirroring the
/// paper's <40k-line restriction. Both matrices fan out over the
/// EvalScheduler's (cell × tool) task plane; pass --threads N to size the
/// pool. Output is identical at every N, with the cache on or off
/// (--no-cache), and composes across shard runs (--shards/--shard-index):
/// with --print-cells the bench emits one sortable line per (cell × tool)
/// task, and the sorted union of all shards' lines equals the sorted
/// unsharded output. Sharded runs always use the per-cell format — an
/// aggregate table over a shard's cells alone would be misleading.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace khaos;

namespace {

/// Mean Precision@1 per (tool, mode), aggregated in row-major matrix order
/// so the result is independent of worker completion order.
std::vector<std::vector<double>>
meanPrecision(const std::vector<EvalScheduler::CellPrecision> &Cells,
              size_t NumWorkloads, size_t NumModes, size_t NumTools) {
  std::vector<std::vector<double>> Out(NumTools,
                                       std::vector<double>(NumModes, 0.0));
  for (size_t TI = 0; TI != NumTools; ++TI)
    for (size_t MI = 0; MI != NumModes; ++MI) {
      std::vector<double> Ps;
      for (size_t WI = 0; WI != NumWorkloads; ++WI) {
        const EvalScheduler::CellPrecision &Cell =
            Cells[WI * NumModes + MI];
        if (Cell.Ok && Cell.PerTool[TI] >= 0.0)
          Ps.push_back(Cell.PerTool[TI]);
      }
      Out[TI][MI] = mean(Ps);
    }
  return Out;
}

/// Per-(cell × tool) lines: "cell <matrix> <task> <workload> <mode> <tool>
/// <precision>". The zero-padded task index makes lexicographic order equal
/// task order, so `sort` merges shard outputs into the unsharded output.
void printCellLines(const char *MatrixId,
                    const std::vector<EvalScheduler::CellPrecision> &Cells,
                    const std::vector<Workload> &Workloads,
                    const std::vector<ObfuscationMode> &Modes,
                    const std::vector<std::string> &Tools) {
  for (size_t WI = 0; WI != Workloads.size(); ++WI)
    for (size_t MI = 0; MI != Modes.size(); ++MI) {
      const EvalScheduler::CellPrecision &Cell = Cells[WI * Modes.size() + MI];
      if (!Cell.Ran)
        continue;
      for (size_t TI = 0; TI != Tools.size(); ++TI) {
        double P = Cell.Ok ? Cell.PerTool[TI] : -1.0;
        std::printf("cell %s %06zu %s %s %s %s\n", MatrixId,
                    (WI * Modes.size() + MI) * Tools.size() + TI,
                    Workloads[WI].Name.c_str(),
                    obfuscationModeName(Modes[MI]), Tools[TI].c_str(),
                    P >= 0.0 ? TableRenderer::fmtRatio(P).c_str() : "n/a");
      }
    }
}

} // namespace

int main(int argc, char **argv) {
  // An explicit tool list replaces the default light-tool set and skips
  // the DeepBinDiff reduced-suite matrix; `--tools SAFE` vs `--tools
  // safe-oop` is the in-process/out-of-process A/B the CI diffs.
  std::vector<std::string> CustomTools;
  bool PrintCells = false;
  EvalScheduler Sched(parseSchedulerArgs(
      argc, argv,
      {toolsFlag(CustomTools, "fig8_precision"), printCellsFlag(PrintCells)}));
  const bool CellMode = PrintCells || Sched.shardCount() > 1;

  if (!CellMode)
    printHeader("Figure 8",
                "Precision@1 of binary diffing tools (relaxed pairing)");

  std::vector<Workload> Main = maybeThin(specCpu2006Suite());
  {
    std::vector<Workload> S17 = maybeThin(specCpu2017Suite());
    for (Workload &W : S17)
      Main.push_back(std::move(W));
    std::vector<Workload> CU = maybeThin(coreUtilsSuite(), 12);
    if (!quickMode()) {
      // Keep the full-suite runtime tractable: sample a third of T-II.
      std::vector<Workload> Sampled;
      for (size_t I = 0; I < CU.size(); I += 3)
        Sampled.push_back(std::move(CU[I]));
      CU = std::move(Sampled);
    }
    for (Workload &W : CU)
      Main.push_back(std::move(W));
  }
  std::vector<Workload> Small = deepBinDiffSubset();

  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();

  // Tool order matches the paper's figure legend. DeepBinDiff is the
  // "heavy" tool and diffs only the reduced suite.
  const std::vector<std::string> LightTools =
      CustomTools.empty()
          ? std::vector<std::string>{"BinDiff", "VulSeeker", "Asm2Vec",
                                     "SAFE"}
          : CustomTools;
  const std::vector<std::string> HeavyTools =
      CustomTools.empty() ? std::vector<std::string>{"DeepBinDiff"}
                          : std::vector<std::string>{};

  EvalRunStats Run;
  std::vector<EvalScheduler::CellPrecision> MainCells =
      Sched.precisionMatrix(Main, Modes, LightTools, &Run);
  std::vector<EvalScheduler::CellPrecision> SmallCells =
      HeavyTools.empty()
          ? std::vector<EvalScheduler::CellPrecision>{}
          : Sched.precisionMatrix(Small, Modes, HeavyTools, &Run);

  if (CellMode) {
    printCellLines("M0", MainCells, Main, Modes, LightTools);
    if (!HeavyTools.empty())
      printCellLines("M1", SmallCells, Small, Modes, HeavyTools);
    reportScheduler(Sched, Run);
    return 0;
  }

  std::vector<std::vector<double>> LightMeans = meanPrecision(
      MainCells, Main.size(), Modes.size(), LightTools.size());
  std::vector<std::vector<double>> HeavyMeans =
      HeavyTools.empty()
          ? std::vector<std::vector<double>>{}
          : meanPrecision(SmallCells, Small.size(), Modes.size(),
                          HeavyTools.size());

  TableRenderer Table(modeHeaders({"tool"}, Modes));
  auto AddRows = [&](const std::vector<std::string> &Names,
                     const std::vector<std::vector<double>> &Means) {
    for (size_t TI = 0; TI != Names.size(); ++TI) {
      std::vector<std::string> Row{Names[TI]};
      for (size_t MI = 0; MI != Modes.size(); ++MI)
        Row.push_back(TableRenderer::fmtRatio(Means[TI][MI]));
      Table.addRow(std::move(Row));
    }
  };
  AddRows(LightTools, LightMeans);
  AddRows(HeavyTools, HeavyMeans);
  Table.print();
  std::printf("\nNote: the paper's headline claim is Precision@1 < 0.19 for "
              "the Khaos modes\non the academic tools, with BinDiff higher "
              "because it exploits symbol names.\n");
  reportScheduler(Sched, Run);
  return 0;
}
