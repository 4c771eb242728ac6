//===- bench/fig9_bindiff_options.cpp - Paper Figure 9 ------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 9: BinDiff similarity scores of BinTuner's best option tuple and
/// of Khaos (FuFi.all) against reference builds at O0..O3, for the
/// SPECint 2006 / SPECspeed 2017 benchmarks the paper plots — plus
/// BinTuner's runtime overhead (the paper reports 30.35%). Rows fan out on
/// the EvalScheduler pool; each Khaos column is one EvalPipeline::diffTask,
/// so the pipeline caches each workload's FuFi.all image once and diffs it
/// against all four cached reference-level images instead of recompiling
/// the obfuscated build per level.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace khaos;

namespace {

const char *Fig9Names[] = {
    "400.perlbench", "401.bzip2",      "429.mcf",
    "445.gobmk",     "456.hmmer",      "458.sjeng",
    "462.libquantum", "464.h264ref",   "473.astar",
    "483.xalancbmk", "600.perlbench_s", "605.mcf_s",
    "620.omnetpp_s", "623.xalancbmk_s", "625.x264_s",
    "631.deepsjeng_s", "641.leela_s",  "657.xz_s"};

struct RowResult {
  BinTunerResult BT;
  double KhaosSim[4] = {0, 0, 0, 0};
};

} // namespace

int main(int argc, char **argv) {
  EvalScheduler::Config SC = parseSchedulerArgs(argc, argv);
  requireInProcess(SC, "fig9_bindiff_options");
  EvalScheduler Sched(SC);
  requireUnsharded(Sched, "fig9_bindiff_options");
  printHeader("Figure 9", "BinDiff similarity: BinTuner vs Khaos across "
                          "compiler option levels");

  std::vector<Workload> All = specCpu2006Suite();
  for (Workload &W : specCpu2017Suite())
    All.push_back(std::move(W));

  std::vector<Workload> Picked;
  for (const char *Name : Fig9Names)
    for (Workload &W : All)
      if (W.Name == Name)
        Picked.push_back(W);
  if (quickMode())
    Picked.resize(4);

  // One row per workload; the single FuFi.all "mode column" makes each row
  // one scheduler cell, so rows run concurrently and land at their
  // workload index.
  const std::vector<ObfuscationMode> RowMode = {ObfuscationMode::FuFiAll};
  std::vector<RowResult> Rows(Picked.size());
  Sched.forEachCell(Picked, RowMode, [&](const EvalCell &C) {
    RowResult &Row = Rows[C.WorkloadIdx];
    BinTuner::Options Opts;
    Opts.Budget = quickMode() ? 6 : 24;
    // The tuner runs on the scheduler's pipeline (candidate builds are
    // cached Baseline artifacts) and draws from the cell's derived seed.
    BinTuner Tuner(Sched.pipeline(), Opts);
    Row.BT = Tuner.run(*C.W, C.Seed);
    for (int L = 0; L != 4; ++L)
      Row.KhaosSim[L] =
          Sched.pipeline()
              .diffTask(*C.W, BuildConfig::forLevel(static_cast<OptLevel>(L)),
                        C.Mode, C.Seed, "BinDiff")
              .Similarity;
  });

  TableRenderer Table({"benchmark", "BT.vsO0", "BT.vsO1", "BT.vsO2",
                       "BT.vsO3", "Kh.vsO0", "Kh.vsO1", "Kh.vsO2",
                       "Kh.vsO3"});
  std::vector<std::vector<double>> Cols(8);
  std::vector<double> BTOverheads;

  for (size_t WI = 0; WI != Picked.size(); ++WI) {
    const RowResult &R = Rows[WI];
    std::vector<std::string> Row{Picked[WI].Name};
    for (int L = 0; L != 4; ++L) {
      double S = R.BT.Ok ? R.BT.SimilarityVsLevel[L] : 0.0;
      Cols[L].push_back(S);
      Row.push_back(TableRenderer::fmtRatio(S));
    }
    for (int L = 0; L != 4; ++L) {
      Cols[4 + L].push_back(R.KhaosSim[L]);
      Row.push_back(TableRenderer::fmtRatio(R.KhaosSim[L]));
    }
    if (R.BT.Ok)
      BTOverheads.push_back(R.BT.OverheadPercent);
    Table.addRow(std::move(Row));
  }
  std::vector<std::string> Geo{"GEOMEAN"};
  for (auto &C : Cols) {
    std::vector<double> Pos;
    for (double V : C)
      Pos.push_back(std::max(V, 0.01));
    Geo.push_back(TableRenderer::fmtRatio(geomean(Pos)));
  }
  Table.addRow(std::move(Geo));
  Table.print();

  std::printf("\nBinTuner best-configuration overhead vs the O2 baseline: "
              "%s (paper: 30.35%%)\n",
              TableRenderer::fmtPercent(
                  geomeanOverheadPercent(BTOverheads))
                  .c_str());
  return 0;
}
