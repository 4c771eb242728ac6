//===- bench/ablation_fusion.cpp - Fusion design ablations ---------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of fusion's design choices (not a paper figure): deep fusion
/// on/off. The paper argues deep fusion entangles the two halves so the
/// fusFunc "cannot be simply separated back" (§3.3.4); the measurable
/// proxy is diffing precision — merged innocuous blocks should cost a
/// little performance and buy extra accuracy degradation.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace khaos;

namespace {

struct Variant {
  const char *Name;
  bool DeepFusion;
};

bool evaluate(EvalPipeline &Pipe, const Workload &W, const Variant &V,
              double &OverheadOut, double &PrecisionOut,
              double &MergedBlocks) {
  // Baseline run and A-side image come from the shared pipeline cache:
  // one baseline compile serves both fusion variants.
  auto BaseRun = Pipe.baselineRun(W);
  if (!BaseRun->Ok)
    return false;
  const ExecResult &Ref = BaseRun->Run;
  auto AImg = Pipe.baselineImage(W);
  if (!AImg->Ok)
    return false;

  // obfuscate hands Opts.Seed to fusion; the ablation fuses with
  // FusionOptions' own seed.
  KhaosOptions Opts;
  Opts.Seed = FusionOptions{}.Seed;
  Opts.Fusion.EnableDeepFusion = V.DeepFusion;
  ObfuscationResult Stats;
  CompiledWorkload Obf =
      Pipe.obfuscate(W, ObfuscationMode::Fusion, Opts, &Stats);
  if (!Obf)
    return false;
  ExecResult Got = runModule(*Obf.M);
  if (!Got.Ok || Got.Stdout != Ref.Stdout)
    return false;

  OverheadOut = (double(Got.Cost) - double(Ref.Cost)) / double(Ref.Cost) *
                100.0;
  MergedBlocks = Stats.Fusion.avgDeepBlocks();

  BinaryImage B = lowerToBinary(*Obf.M);
  PrecisionOut = Pipe.runDiffTool(*createAsm2VecTool(), AImg->Image,
                                  AImg->Features, B, extractFeatures(B))
                     .Precision;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  parseBenchFlags(argc, argv, {});
  printHeader("Ablation: fusion", "deep fusion on/off — overhead vs "
                                  "Asm2Vec precision");

  const Variant Variants[] = {{"deep fusion ON", true},
                              {"deep fusion OFF", false}};
  std::vector<Workload> Suite = maybeThin(specCpu2006Suite(), 4);
  if (!quickMode())
    Suite.resize(std::min<size_t>(Suite.size(), 8));

  TableRenderer Table({"benchmark", "variant", "overhead",
                       "Asm2Vec precision@1", "#HBB/pair"});
  EvalPipeline Pipe;
  for (const Workload &W : Suite) {
    for (const Variant &V : Variants) {
      double Ov = 0, P = 0, HBB = 0;
      if (evaluate(Pipe, W, V, Ov, P, HBB))
        Table.addRow({W.Name, V.Name, TableRenderer::fmtPercent(Ov),
                      TableRenderer::fmtRatio(P),
                      TableRenderer::fmtRatio(HBB)});
      else
        Table.addRow({W.Name, V.Name, "n/a", "n/a", "n/a"});
    }
  }
  Table.print();
  std::printf("\nDeep fusion should trade a small amount of extra overhead "
              "for lower diffing\nprecision (more entangled fusFuncs).\n");
  return 0;
}
