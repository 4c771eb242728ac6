//===- diffing/VulSeekerTool.cpp - VulSeeker-style semantic features --------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VulSeeker (Gao et al., ASE'18) analogue: per-block semantic category
/// counts flow through the CFG ("semantic flow graph") into a function
/// embedding; similarity is a normalized distance between embeddings. No
/// symbols, no call graph (paper Table 1).
///
//===----------------------------------------------------------------------===//

#include "diffing/DiffTool.h"
#include "diffing/Embedding.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>

using namespace khaos;

namespace {

class VulSeekerTool : public DiffTool {
public:
  const char *getName() const override { return "VulSeeker"; }
  ToolTraits getTraits() const override {
    ToolTraits T;
    T.TimeConsuming = true;
    T.MemoryConsuming = true;
    return T;
  }
  DiffResult diff(const BinaryImage &A, const ImageFeatures &FA,
                  const BinaryImage &B,
                  const ImageFeatures &FB) const override;

private:
  static std::vector<double> embed(const FunctionFeatures &F);
};

/// Semantic-flow embedding: per-block category vectors smoothed over CFG
/// neighbours (one round), then pooled, with CFG shape appended.
std::vector<double> VulSeekerTool::embed(const FunctionFeatures &F) {
  size_t NB = F.BlockHists.size();
  std::vector<std::vector<double>> BlockVecs(
      NB, std::vector<double>(NumSemanticCategories, 0.0));
  for (size_t BI = 0; BI != NB; ++BI)
    for (unsigned Op = 0; Op != NumMOpcodes; ++Op)
      if (F.BlockHists[BI][Op] > 0.0)
        BlockVecs[BI][robustTokenClass(Op)] += F.BlockHists[BI][Op];

  // One propagation round along the CFG (successor smoothing).
  std::vector<std::vector<double>> Smoothed = BlockVecs;
  for (size_t BI = 0; BI != NB; ++BI)
    for (uint32_t S : F.BlockSuccs[BI])
      if (S < NB)
        for (unsigned K = 0; K != NumSemanticCategories; ++K)
          Smoothed[BI][K] += 0.3 * BlockVecs[S][K];

  std::vector<double> Pooled(NumSemanticCategories, 0.0);
  for (const auto &V : Smoothed)
    for (unsigned K = 0; K != NumSemanticCategories; ++K)
      Pooled[K] += V[K];

  // Assemble weighted segments: semantic profile and constants (the CFG
  // shape enters through the multiplicative shapeAffinity instead).
  std::vector<double> Imms(EmbeddingDim, 0.0);
  for (int64_t V : F.Immediates)
    accumulateToken(Imms, 0x1000000ull + static_cast<uint64_t>(V));
  std::vector<double> Out;
  appendSegment(Out, std::move(Pooled), 1.0);
  appendSegment(Out, std::move(Imms), 0.7);
  return Out;
}

DiffResult VulSeekerTool::diff(const BinaryImage & /*A*/,
                               const ImageFeatures &FA,
                               const BinaryImage & /*B*/,
                               const ImageFeatures &FB) const {
  size_t NA = FA.Funcs.size(), NB = FB.Funcs.size();
  std::vector<std::vector<double>> EA(NA), EB(NB);
  for (size_t I = 0; I != NA; ++I)
    EA[I] = embed(FA.Funcs[I]);
  for (size_t J = 0; J != NB; ++J)
    EB[J] = embed(FB.Funcs[J]);

  return rankByScore(NA, NB, [&](size_t I, size_t J) {
    return cosineSimilarity(EA[I], EB[J]) *
           shapeAffinity(FA.Funcs[I], FB.Funcs[J]);
  });
}

} // namespace

std::unique_ptr<DiffTool> khaos::createVulSeekerTool() {
  return std::make_unique<VulSeekerTool>();
}
