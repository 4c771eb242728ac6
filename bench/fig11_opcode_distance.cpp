//===- bench/fig11_opcode_distance.cpp - Paper Figure 11 ----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 11: normalized opcode-histogram distance between original and
/// obfuscated binaries (objdump-style) for nine configurations over SPEC
/// CPU 2006 and 2017.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace khaos;

namespace {

void runSuite(EvalPipeline &Pipe, const char *Caption,
              std::vector<Workload> Suite) {
  struct Config {
    const char *Name;
    ObfuscationMode Mode;
    bool BinTuner = false;
  };
  const Config Configs[] = {
      {"Sub", ObfuscationMode::Sub},
      {"Bog", ObfuscationMode::Bog},
      {"Fla-10", ObfuscationMode::Fla10},
      {"BinTuner", ObfuscationMode::None, true},
      {"Fission", ObfuscationMode::Fission},
      {"Fusion", ObfuscationMode::Fusion},
      {"FuFi.sep", ObfuscationMode::FuFiSep},
      {"FuFi.ori", ObfuscationMode::FuFiOri},
      {"FuFi.all", ObfuscationMode::FuFiAll},
  };

  std::vector<std::string> Headers{"benchmark"};
  for (const Config &C : Configs)
    Headers.push_back(C.Name);
  TableRenderer Table(Headers);

  // Raw distances first; normalize by the per-suite maximum like the
  // paper ("we used the max distance of all obfuscated programs as the
  // baseline").
  std::vector<std::vector<double>> Raw(Suite.size(),
                                       std::vector<double>(
                                           std::size(Configs), 0.0));
  double MaxDist = 0.0;
  for (size_t WI = 0; WI != Suite.size(); ++WI) {
    const Workload &W = Suite[WI];
    auto Base = Pipe.baselineImage(W);
    if (!Base->Ok)
      continue;
    std::vector<double> BaseHist = Base->Image.opcodeHistogram();
    for (size_t CI = 0; CI != std::size(Configs); ++CI) {
      std::vector<double> ObfHist;
      if (Configs[CI].BinTuner) {
        BinTuner::Options BTOpts;
        BTOpts.Budget = quickMode() ? 4 : 12;
        BinTuner Tuner(Pipe, BTOpts);
        // This bench takes no scheduler flags; derive the tuner seed the
        // way a scheduler cell would under the default run seed.
        BinTunerResult BT = Tuner.run(
            W, deriveCellSeed(0xc906, W.Name, ObfuscationMode::None));
        if (!BT.Ok)
          continue;
        auto BestImg = Pipe.baselineImage(W, BT.Best);
        if (!BestImg->Ok)
          continue;
        ObfHist = BestImg->Image.opcodeHistogram();
      } else {
        auto Obf = Pipe.obfuscatedImage(W, Configs[CI].Mode);
        if (!Obf->Ok)
          continue;
        ObfHist = Obf->Image.opcodeHistogram();
      }
      double D = euclideanDistance(BaseHist, ObfHist);
      Raw[WI][CI] = D;
      MaxDist = std::max(MaxDist, D);
    }
  }

  std::vector<std::vector<double>> PerCfg(std::size(Configs));
  for (size_t WI = 0; WI != Suite.size(); ++WI) {
    std::vector<std::string> Row{Suite[WI].Name};
    for (size_t CI = 0; CI != std::size(Configs); ++CI) {
      double N = MaxDist > 0 ? Raw[WI][CI] / MaxDist : 0.0;
      PerCfg[CI].push_back(std::max(N, 1e-4));
      Row.push_back(TableRenderer::fmtRatio(N));
    }
    Table.addRow(std::move(Row));
  }
  std::vector<std::string> Geo{"GEOMEAN"};
  for (auto &C : PerCfg)
    Geo.push_back(TableRenderer::fmtRatio(geomean(C)));
  Table.addRow(std::move(Geo));

  std::printf("\n%s\n", Caption);
  Table.print();
}

} // namespace

int main(int argc, char **argv) {
  parseBenchFlags(argc, argv, {});
  printHeader("Figure 11",
              "normalized opcode histogram distance (original vs obfuscated)");
  EvalPipeline Pipe;
  runSuite(Pipe, "SPEC CPU 2006", maybeThin(specCpu2006Suite()));
  runSuite(Pipe, "SPEC CPU 2017", maybeThin(specCpu2017Suite()));
  return 0;
}
