//===- bench/table2_internals.cpp - Paper Table 2 -----------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 2: internal statistics of the fission and fusion primitives on
/// SPEC CPU 2006, SPEC CPU 2017 and CoreUtils — fission ratio, average
/// basic blocks per sepFunc, reduction ratio; fusion ratio, compressed
/// parameters per pair, innocuous blocks merged per pair. Each suite's
/// (workload × {Fission, Fusion}) matrix fans out on the EvalScheduler
/// pool and the integer counters merge under the EvalRunStats mutex, so
/// totals are identical at every --threads N.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace khaos;

namespace {

/// Per-suite totals: Fission-mode cells feed S.Fission, Fusion-mode cells
/// feed S.Fusion (EvalRunStats would conflate them, since fission also
/// reports pass-through fusion counters on FuFi configurations).
struct SuiteStats {
  FissionStats Fission;
  FusionStats Fusion;
};

SuiteStats gather(const EvalScheduler &Sched,
                  const std::vector<Workload> &Suite) {
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Fission,
                                              ObfuscationMode::Fusion};
  // Statistics describe the primitives themselves, not the post-O2 module.
  KhaosOptions Base;
  Base.RunPostOpt = false;

  SuiteStats S;
  std::mutex M;
  Sched.forEachCell(Suite, Modes, [&](const EvalCell &C) {
    KhaosOptions Opts = Base;
    Opts.Seed = C.Seed;
    // A frontend failure leaves R zero-initialized, so merging it is a
    // no-op — no gating needed.
    ObfuscationResult R;
    Sched.pipeline().obfuscate(*C.W, C.Mode, Opts, &R);
    std::lock_guard<std::mutex> Lock(M);
    if (C.Mode == ObfuscationMode::Fission)
      S.Fission.merge(R.Fission);
    else
      S.Fusion.merge(R.Fusion);
  });
  return S;
}

} // namespace

int main(int argc, char **argv) {
  EvalScheduler::Config SC = parseSchedulerArgs(argc, argv);
  requireInProcess(SC, "table2_internals");
  EvalScheduler Sched(SC);
  requireUnsharded(Sched, "table2_internals");
  printHeader("Table 2", "statistics of the fission and the fusion");

  struct SuiteDef {
    const char *Name;
    std::vector<Workload> Programs;
  };
  std::vector<SuiteDef> Suites;
  Suites.push_back({"SPEC CPU 2006", maybeThin(specCpu2006Suite())});
  Suites.push_back({"SPEC CPU 2017", maybeThin(specCpu2017Suite())});
  Suites.push_back({"CoreUtils", maybeThin(coreUtilsSuite(), 12)});

  TableRenderer Table({"metric", "SPEC CPU 2006", "SPEC CPU 2017",
                       "CoreUtils"});
  std::vector<SuiteStats> Stats;
  for (const SuiteDef &S : Suites)
    Stats.push_back(gather(Sched, S.Programs));

  auto Row = [&](const char *Name, auto Extract) {
    std::vector<std::string> Cells{Name};
    for (const SuiteStats &S : Stats)
      Cells.push_back(Extract(S));
    Table.addRow(std::move(Cells));
  };

  Row("Fission Ratio", [](const SuiteStats &S) {
    return TableRenderer::fmtPercent(S.Fission.fissionRatio() * 100.0);
  });
  Row("#BB (per sepFunc)", [](const SuiteStats &S) {
    return TableRenderer::fmtRatio(S.Fission.avgBlocksPerSepFunc());
  });
  Row("RR (reduced ratio)", [](const SuiteStats &S) {
    return TableRenderer::fmtPercent(S.Fission.reductionRatio() * 100.0);
  });
  Row("Fusion Ratio", [](const SuiteStats &S) {
    return TableRenderer::fmtPercent(S.Fusion.fusionRatio() * 100.0);
  });
  Row("#RP (compressed params/pair)", [](const SuiteStats &S) {
    return TableRenderer::fmtRatio(S.Fusion.avgReducedParams());
  });
  Row("#HBB (innocuous blocks/pair)", [](const SuiteStats &S) {
    return TableRenderer::fmtRatio(S.Fusion.avgDeepBlocks());
  });
  Table.print();
  std::printf("\nPaper reference: Fission Ratio 116-152%%, #BB 5.4-6.5, RR "
              "34-44%%,\nFusion Ratio 97-99%%, #RP 1.27-1.47, #HBB "
              "1.02-1.89.\n");
  return 0;
}
