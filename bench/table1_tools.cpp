//===- bench/table1_tools.cpp - Paper Table 1 ---------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 1: characteristics of the registered diffing tools (granularity,
/// symbol reliance, time/memory cost, call-graph use), printed from the
/// tools' trait declarations and verified against a measured probe. The
/// paper's five rows come first; post-paper backends (jtrans, orcas,
/// semdiff, the safe-oop twin) append in registration order.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace khaos;

int main(int argc, char **argv) {
  parseBenchFlags(argc, argv, {});
  printHeader("Table 1", "characteristics of the chosen diffing works");

  TableRenderer Table({"diffing", "granularity", "symbol relying",
                       "time consuming", "memory consuming",
                       "call-graph lacking"});
  // Every row comes straight from the registry, in registration (Table-1)
  // order, so a newly registered backend shows up here automatically.
  for (const std::string &Name : registeredToolNames()) {
    auto Tool = createDiffTool(Name);
    ToolTraits T = Tool->getTraits();
    Table.addRow({Tool->getName(), toolGranularityName(T.Granularity),
                  T.UsesSymbols ? "Y" : "N",
                  T.TimeConsuming ? "Y" : "N",
                  T.MemoryConsuming ? "Y" : "N",
                  T.UsesCallGraph ? "N" : "Y"});
  }
  Table.print();

  // Measured sanity probe: symbol reliance shows up as a precision gap
  // between stripped and un-stripped diffing for BinDiff only.
  EvalPipeline Pipe;
  std::vector<Workload> Suite = maybeThin(specCpu2006Suite(), 8);
  if (!Suite.empty()) {
    const Workload &W = Suite.front();
    DiffImages Imgs = Pipe.diffImages(W, ObfuscationMode::Fission);
    if (Imgs.Ok) {
      DiffImages Stripped = Imgs;
      for (MFunction &F : Stripped.B.Functions)
        F.Name = "sub_" + std::to_string(F.Address); // Strip symbols.
      Stripped.FB = extractFeatures(Stripped.B);
      auto BinDiff = createDiffTool("BinDiff");
      double WithSyms = Pipe.runDiffTool(*BinDiff, Imgs).Precision;
      double NoSyms = Pipe.runDiffTool(*BinDiff, Stripped).Precision;
      std::printf("\nmeasured symbol reliance (BinDiff, %s, Fission): "
                  "un-stripped %.3f vs stripped %.3f\n",
                  W.Name.c_str(), WithSyms, NoSyms);
    }
  }
  return 0;
}
