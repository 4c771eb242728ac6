//===- bench/ablation_fission.cpp - Fission design ablations ------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of fission's design choices (not a paper figure):
///   1. Algorithm 1's cost-effectiveness selection vs. taking the largest
///      regions regardless of execution frequency — quantifies how much
///      the block-frequency term buys (paper §3.2.1).
///   2. Data-flow reduction ("lazy allocation") on/off — parameter-count
///      and overhead impact (paper §3.2.2).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>

using namespace khaos;

namespace {

/// Overhead of plain fission under one region-selection policy. The
/// baseline run and the fission stage come from the shared pipeline cache
/// (one compile+run per workload for both policy variants), and the
/// obfuscated build is the pipeline's Fission mode under these options.
bool overheadWithPolicy(EvalPipeline &Pipe, const Workload &W,
                        bool IgnoreFrequency, double &OverheadOut,
                        double &AvgParams) {
  auto Base = Pipe.baselineRun(W);
  if (!Base->Ok)
    return false;
  const ExecResult &Ref = Base->Run;

  KhaosOptions Opts;
  Opts.Fission.Regions.IgnoreFrequencyCost = IgnoreFrequency;
  auto Fission = Pipe.fissionStage(W, Opts.Fission);
  if (!*Fission)
    return false;
  // Parameter counts as extracted: O2 may inline or drop sepFuncs.
  const std::vector<std::string> &SepNames = Fission->Phase.SepFuncs;
  unsigned ParamSum = 0;
  for (const std::string &Name : SepNames)
    ParamSum += Fission->M->getFunction(Name)->arg_size();
  CompiledWorkload Obf = Pipe.obfuscate(W, ObfuscationMode::Fission, Opts);
  if (!Obf)
    return false;
  ExecResult Got = runModule(*Obf.M);
  if (!Got.Ok || Got.Stdout != Ref.Stdout)
    return false;
  OverheadOut = (double(Got.Cost) - double(Ref.Cost)) / double(Ref.Cost) *
                100.0;
  AvgParams = SepNames.empty() ? 0.0 : double(ParamSum) / SepNames.size();
  return true;
}

} // namespace

int main(int argc, char **argv) {
  parseBenchFlags(argc, argv, {});
  printHeader("Ablation: fission",
              "Algorithm 1's cost model vs size-greedy region selection");

  std::vector<Workload> Suite = maybeThin(specCpu2006Suite(), 4);
  if (!quickMode())
    Suite.resize(std::min<size_t>(Suite.size(), 8));

  TableRenderer Table({"benchmark", "Alg.1 overhead", "size-greedy overhead",
                       "Alg.1 avg params", "size-greedy avg params"});
  std::vector<double> A1, SG;
  EvalPipeline Pipe;
  for (const Workload &W : Suite) {
    double OvA = 0, OvB = 0, PA = 0, PB = 0;
    bool OkA = overheadWithPolicy(Pipe, W, /*IgnoreFrequency=*/false, OvA, PA);
    bool OkB = overheadWithPolicy(Pipe, W, /*IgnoreFrequency=*/true, OvB, PB);
    if (OkA)
      A1.push_back(OvA);
    if (OkB)
      SG.push_back(OvB);
    Table.addRow({W.Name,
                  OkA ? TableRenderer::fmtPercent(OvA) : "n/a",
                  OkB ? TableRenderer::fmtPercent(OvB) : "n/a",
                  TableRenderer::fmtRatio(PA),
                  TableRenderer::fmtRatio(PB)});
  }
  Table.addRow({"GEOMEAN",
                TableRenderer::fmtPercent(geomeanOverheadPercent(A1)),
                TableRenderer::fmtPercent(geomeanOverheadPercent(SG)), "",
                ""});
  Table.print();
  std::printf("\nAlgorithm 1 exists to keep hot region heads out of "
              "sepFuncs; the size-greedy\nstrawman shows the overhead of "
              "ignoring the frequency term.\n");
  return 0;
}
