//===- diffing/BinDiffTool.cpp - BinDiff-style matching --------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Industry-tool analogue (zynamics BinDiff): exploits symbol names when
/// present, matches the (#blocks, #edges, #calls) triple, and propagates
/// along the call graph. Whole-binary similarity is the size-weighted
/// structural similarity of the greedy 1:1 matching — the score Fig. 9
/// compares across compiler options.
///
//===----------------------------------------------------------------------===//

#include "diffing/DiffTool.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>
#include <set>

using namespace khaos;

namespace {

class BinDiffTool : public DiffTool {
public:
  const char *getName() const override { return "BinDiff"; }
  ToolTraits getTraits() const override {
    ToolTraits T;
    T.UsesSymbols = true;
    T.UsesCallGraph = true;
    return T;
  }
  DiffResult diff(const BinaryImage &A, const ImageFeatures &FA,
                  const BinaryImage &B,
                  const ImageFeatures &FB) const override;

private:
  static double tripleSimilarity(const FunctionFeatures &X,
                                 const FunctionFeatures &Y);
  static double structuralSimilarity(const FunctionFeatures &X,
                                     const FunctionFeatures &Y);
};

double BinDiffTool::tripleSimilarity(const FunctionFeatures &X,
                                     const FunctionFeatures &Y) {
  double DB = std::abs((int)X.NumBlocks - (int)Y.NumBlocks);
  double DE = std::abs((int)X.NumEdges - (int)Y.NumEdges);
  double DC = std::abs((int)X.NumCalls - (int)Y.NumCalls);
  double Total = X.NumBlocks + Y.NumBlocks + X.NumEdges + Y.NumEdges +
                 X.NumCalls + Y.NumCalls + 1.0;
  return 1.0 - (DB + DE + DC) / Total;
}

double BinDiffTool::structuralSimilarity(const FunctionFeatures &X,
                                         const FunctionFeatures &Y) {
  double Triple = tripleSimilarity(X, Y);
  double Hist = cosineSimilarity(X.OpcodeHist, Y.OpcodeHist);
  double DegIn = 1.0 - std::abs((int)X.CallGraphIn - (int)Y.CallGraphIn) /
                           (X.CallGraphIn + Y.CallGraphIn + 1.0);
  double DegOut =
      1.0 - std::abs((int)X.CallGraphOut - (int)Y.CallGraphOut) /
                (X.CallGraphOut + Y.CallGraphOut + 1.0);
  double Mix = 0.45 * Triple + 0.35 * Hist + 0.1 * DegIn + 0.1 * DegOut;
  // BinDiff's MD-index-style similarity collapses when the CFG shape is
  // restructured (the paper's Fig. 9 relies on this); the multiplicative
  // shape affinity models that cliff.
  return Mix * shapeAffinity(X, Y);
}

DiffResult BinDiffTool::diff(const BinaryImage & /*A*/,
                             const ImageFeatures &FA,
                             const BinaryImage &B,
                             const ImageFeatures &FB) const {
  size_t NA = FA.Funcs.size(), NB = FB.Funcs.size();

  // Pass 1: name-anchored matches (the "symbol relying" behaviour the
  // paper calls out in Table 1).
  std::vector<int> NameMatch(NA, -1);
  for (size_t I = 0; I != NA; ++I) {
    auto It = B.FunctionIndex.find(FA.Funcs[I].Name);
    if (It != B.FunctionIndex.end())
      NameMatch[I] = static_cast<int>(It->second);
  }

  // Full similarity matrix with the name bonus and a call-graph
  // propagation term: callees matched by name raise confidence.
  std::vector<std::vector<double>> Sim(NA, std::vector<double>(NB, 0.0));
  for (size_t I = 0; I != NA; ++I) {
    for (size_t J = 0; J != NB; ++J) {
      double S = structuralSimilarity(FA.Funcs[I], FB.Funcs[J]);
      if (NameMatch[I] == (int)J)
        S = 0.35 + 0.65 * S;
      // Call-graph propagation: common named callees.
      if (!FA.Funcs[I].Callees.empty() && !FB.Funcs[J].Callees.empty()) {
        std::set<std::string> ACallees, Common;
        for (uint32_t C : FA.Funcs[I].Callees)
          ACallees.insert(FA.Funcs[C].Name);
        unsigned Shared = 0;
        for (uint32_t C : FB.Funcs[J].Callees)
          if (ACallees.count(FB.Funcs[C].Name))
            ++Shared;
        S += 0.08 * Shared /
             std::max<size_t>(FA.Funcs[I].Callees.size(), 1);
      }
      Sim[I][J] = std::min(S, 1.0);
    }
  }

  // Rankings from the shared routine; the whole-binary score is BinDiff's
  // own: the greedy 1:1 matching, weighted by size.
  DiffResult R =
      rankByScore(NA, NB, [&](size_t I, size_t J) { return Sim[I][J]; });

  std::vector<std::tuple<double, size_t, size_t>> Cands;
  for (size_t I = 0; I != NA; ++I)
    for (size_t J = 0; J != NB; ++J)
      if (Sim[I][J] > 0.1)
        Cands.push_back({Sim[I][J], I, J});
  std::stable_sort(Cands.begin(), Cands.end(),
                   [](const auto &X, const auto &Y) {
                     return std::get<0>(X) > std::get<0>(Y);
                   });
  std::vector<bool> UsedA(NA, false), UsedB(NB, false);
  double Weighted = 0.0, TotalWeight = 0.0;
  for (size_t I = 0; I != NA; ++I)
    TotalWeight += FA.Funcs[I].NumInsts;
  for (const auto &[S, I, J] : Cands) {
    if (UsedA[I] || UsedB[J])
      continue;
    UsedA[I] = true;
    UsedB[J] = true;
    Weighted += S * FA.Funcs[I].NumInsts;
  }
  R.WholeBinarySimilarity = TotalWeight > 0 ? Weighted / TotalWeight : 0.0;
  return R;
}

} // namespace

std::unique_ptr<DiffTool> khaos::createBinDiffTool() {
  return std::make_unique<BinDiffTool>();
}
