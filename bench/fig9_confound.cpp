//===- bench/fig9_confound.cpp - Build-config confound experiment -------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-optimization-level confound experiment: how much of a diffing
/// tool's score drop is the *obfuscation* and how much is the *build
/// delta*? Every cell diffs a baseline built at an explicit BuildConfig
/// (the `--baseline-opt` axis, default O0,O1,O2, optionally crossed with
/// the `--compiler-style clang,gcc` axis) against the obfuscated build —
/// and the `none` mode column diffs it against a plain post-opt rebuild,
/// isolating the pure build-configuration confound the paper's
/// cross-level comparisons have to control for. With both styles on the
/// axis the aggregate tables add a pure style-delta row per level: the
/// score shift the lowering personality alone causes (gcc minus clang).
///
/// Aggregate mode prints, per tool, a (config × mode) table of mean
/// Precision@1 and one of mean top-1 similarity. With --print-cells (or
/// --shards) the bench emits one sortable line per (cell × tool) task
/// instead; the sorted union of shard outputs equals the sorted unsharded
/// output, and stdout is byte-identical at every --threads count, with
/// the cache on or off, and through a khaos-evald daemon (--connect).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace khaos;

namespace {

/// Per-(cell × tool) lines: "cell C0 <task> <workload> <config> <mode>
/// <tool> <precision> <similarity>". Zero-padded task index ==
/// lexicographic == matrix order, so `sort` merges shard outputs.
void printCellLines(const std::vector<EvalScheduler::ConfoundCell> &Cells,
                    const std::vector<Workload> &Workloads,
                    const std::vector<BuildConfig> &Configs,
                    const std::vector<ObfuscationMode> &Modes,
                    const std::vector<std::string> &Tools) {
  for (size_t WI = 0; WI != Workloads.size(); ++WI)
    for (size_t CI = 0; CI != Configs.size(); ++CI)
      for (size_t MI = 0; MI != Modes.size(); ++MI) {
        size_t Flat = (WI * Configs.size() + CI) * Modes.size() + MI;
        const EvalScheduler::ConfoundCell &Cell = Cells[Flat];
        if (!Cell.Ran)
          continue;
        for (size_t TI = 0; TI != Tools.size(); ++TI) {
          double P = Cell.Ok ? Cell.PerToolPrecision[TI] : -1.0;
          double S = Cell.Ok ? Cell.PerToolSimilarity[TI] : -1.0;
          std::printf("cell C0 %06zu %s %s %s %s %s %s\n",
                      Flat * Tools.size() + TI, Workloads[WI].Name.c_str(),
                      Configs[CI].name().c_str(),
                      obfuscationModeName(Modes[MI]), Tools[TI].c_str(),
                      P >= 0.0 ? TableRenderer::fmtRatio(P).c_str() : "n/a",
                      S >= 0.0 ? TableRenderer::fmtRatio(S).c_str() : "n/a");
        }
      }
}

/// Mean of one per-tool metric over workloads, at fixed (config, mode) —
/// row-major accumulation, independent of worker completion order.
double meanMetric(const std::vector<EvalScheduler::ConfoundCell> &Cells,
                  size_t NumWorkloads, size_t NumConfigs, size_t NumModes,
                  size_t CI, size_t MI, size_t TI, bool Precision) {
  std::vector<double> Vals;
  for (size_t WI = 0; WI != NumWorkloads; ++WI) {
    const EvalScheduler::ConfoundCell &Cell =
        Cells[(WI * NumConfigs + CI) * NumModes + MI];
    if (!Cell.Ok)
      continue;
    double V =
        Precision ? Cell.PerToolPrecision[TI] : Cell.PerToolSimilarity[TI];
    if (V >= 0.0)
      Vals.push_back(V);
  }
  return mean(Vals);
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Tools = {"BinDiff", "semdiff"};
  bool PrintCells = false;
  std::vector<BuildConfig> Configs;
  std::vector<CompilerStyle> Styles;
  EvalScheduler::Config SC = parseSchedulerArgs(
      argc, argv,
      {toolsFlag(Tools, "fig9_confound"), printCellsFlag(PrintCells)},
      &Configs, &Styles);
  EvalScheduler Sched(SC);
  if (Configs.empty()) {
    // Default confound axis: the levels the paper's cross-level
    // comparisons span (quick mode keeps the endpoints). A single
    // --compiler-style applies here too (resolveBaselineFlags folded it
    // into the run baseline).
    for (OptLevel L : quickMode()
                          ? std::vector<OptLevel>{OptLevel::O0, OptLevel::O2}
                          : std::vector<OptLevel>{OptLevel::O0, OptLevel::O1,
                                                  OptLevel::O2}) {
      BuildConfig BC = BuildConfig::forLevel(L);
      BC.Codegen.Style = SC.Baseline.Codegen.Style;
      Configs.push_back(BC);
    }
  }
  if (!Styles.empty()) {
    // `--compiler-style clang,gcc` is the cross-compiler confound axis:
    // cross it over the level axis, styles innermost, so each level's
    // rows stay adjacent and a pure style delta reads within one level.
    std::vector<BuildConfig> Crossed;
    Crossed.reserve(Configs.size() * Styles.size());
    for (const BuildConfig &BC : Configs)
      for (CompilerStyle S : Styles) {
        BuildConfig C2 = BC;
        C2.Codegen.Style = S;
        Crossed.push_back(C2);
      }
    Configs = std::move(Crossed);
  }
  const bool CellMode = PrintCells || Sched.shardCount() > 1;
  if (!CellMode) {
    requireUnsharded(Sched, "fig9_confound");
    printHeader("Confound axis", "build configuration vs obfuscation: "
                                 "which defeats the diffing tool?");
  }

  std::vector<Workload> Workloads = maybeThin(specCpu2006Suite());

  // `none` is the pure build-delta column: baseline at the cell's config
  // vs a plain O2-pipeline rebuild, no obfuscation at all.
  const std::vector<ObfuscationMode> Modes = {
      ObfuscationMode::None, ObfuscationMode::Sub, ObfuscationMode::Fission,
      ObfuscationMode::Fusion, ObfuscationMode::FuFiAll};

  EvalRunStats Run;
  std::vector<EvalScheduler::ConfoundCell> Cells =
      Sched.confoundMatrix(Workloads, Configs, Modes, Tools, &Run);

  if (CellMode) {
    printCellLines(Cells, Workloads, Configs, Modes, Tools);
    reportScheduler(Sched, Run);
    return 0;
  }

  std::vector<std::string> Headers{"tool", "baseline"};
  for (ObfuscationMode M : Modes)
    Headers.push_back(obfuscationModeName(M));

  // Config-index pairs that differ only in compiler style: the operands
  // of the pure style-delta rows (gcc minus clang at the same level and
  // codegen knobs).
  std::vector<std::pair<size_t, size_t>> StylePairs;
  for (size_t CI = 0; CI != Configs.size(); ++CI)
    for (size_t CJ = 0; CJ != Configs.size(); ++CJ) {
      if (Configs[CI].Codegen.Style != CompilerStyle::ClangLike ||
          Configs[CJ].Codegen.Style != CompilerStyle::GccLike)
        continue;
      BuildConfig Restyled = Configs[CJ];
      Restyled.Codegen.Style = CompilerStyle::ClangLike;
      if (Restyled == Configs[CI])
        StylePairs.emplace_back(CI, CJ);
    }

  for (bool Precision : {true, false}) {
    TableRenderer Table(Headers);
    for (size_t TI = 0; TI != Tools.size(); ++TI) {
      for (size_t CI = 0; CI != Configs.size(); ++CI) {
        std::vector<std::string> Row{Tools[TI], Configs[CI].name()};
        for (size_t MI = 0; MI != Modes.size(); ++MI)
          Row.push_back(TableRenderer::fmtRatio(
              meanMetric(Cells, Workloads.size(), Configs.size(),
                         Modes.size(), CI, MI, TI, Precision)));
        Table.addRow(std::move(Row));
      }
      // Pure style-delta rows: what switching the lowering personality
      // alone (same level, same knobs) does to the tool's score — the
      // gcc-vs-clang columns of the provenance literature.
      for (const auto &Pair : StylePairs) {
        std::vector<std::string> Row{
            Tools[TI], "style-delta@" + Configs[Pair.first].name()};
        for (size_t MI = 0; MI != Modes.size(); ++MI) {
          double Clang =
              meanMetric(Cells, Workloads.size(), Configs.size(),
                         Modes.size(), Pair.first, MI, TI, Precision);
          double Gcc =
              meanMetric(Cells, Workloads.size(), Configs.size(),
                         Modes.size(), Pair.second, MI, TI, Precision);
          Row.push_back(formatStr("%+.3f", Gcc - Clang));
        }
        Table.addRow(std::move(Row));
      }
    }
    std::printf("\nMean %s per (tool x baseline config x mode):\n",
                Precision ? "Precision@1" : "top-1 similarity");
    Table.print();
  }
  std::printf("\nReading: the 'none' column is the pure build-configuration "
              "delta. A mode\ncolumn approaching 'none' at the same config "
              "means the tool's loss is mostly\nthe build confound, not the "
              "obfuscation.");
  if (!StylePairs.empty())
    std::printf(" A style-delta row is the score shift the\ncompiler "
                "style alone causes at that level (gcc minus clang).");
  std::printf("\n");
  reportScheduler(Sched, Run);
  return 0;
}
