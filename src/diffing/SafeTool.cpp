//===- diffing/SafeTool.cpp - SAFE-style sequence embeddings -----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SAFE (Massarelli et al., DIMVA'19) analogue: a self-attentive sequence
/// embedding approximated by position-decayed token vectors over the
/// function's linearized instruction stream. Order-aware (unlike the
/// Asm2Vec surrogate) and oblivious to symbols and the call graph.
///
//===----------------------------------------------------------------------===//

#include "diffing/DiffTool.h"
#include "diffing/Embedding.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>

using namespace khaos;

namespace {

class SafeTool : public DiffTool {
public:
  const char *getName() const override { return "SAFE"; }
  ToolTraits getTraits() const override { return {}; }
  DiffResult diff(const BinaryImage &A, const ImageFeatures &FA,
                  const BinaryImage &B,
                  const ImageFeatures &FB) const override;

private:
  static std::vector<double> embed(const FunctionFeatures &F);
};

std::vector<double> SafeTool::embed(const FunctionFeatures &F) {
  // Attention surrogate: early instructions (prologue/shape) and call
  // sites get higher weight; weight decays with position. Segments as in
  // the Asm2Vec surrogate but order-aware.
  std::vector<double> Classes(EmbeddingDim, 0.0);
  std::vector<double> Raw(EmbeddingDim, 0.0);
  for (size_t I = 0; I != F.TokenSeq.size(); ++I) {
    double W = 1.0 / (1.0 + 0.015 * (double)I);
    MOp Op = (MOp)F.TokenSeq[I];
    if (Op == MOp::Call || Op == MOp::CallIndirect)
      W *= 2.0;
    accumulateToken(Classes, 100 + robustTokenClass(F.TokenSeq[I]), W);
    accumulateToken(Raw, F.TokenSeq[I], W);
    if (I + 1 < F.TokenSeq.size())
      accumulateToken(Classes,
                      bigramToken(robustTokenClass(F.TokenSeq[I]),
                                  robustTokenClass(F.TokenSeq[I + 1])),
                      0.6 * W);
  }
  // Distinctive constants: preserved by intra-procedural obfuscation,
  // scattered across functions by fission/fusion.
  std::vector<double> Imms(EmbeddingDim, 0.0);
  for (int64_t V : F.Immediates)
    accumulateToken(Imms, 0x1000000ull + static_cast<uint64_t>(V));
  std::vector<double> Out;
  appendSegment(Out, std::move(Classes), 1.0);
  appendSegment(Out, std::move(Raw), 0.35);
  appendSegment(Out, std::move(Imms), 0.7);
  return Out;
}

DiffResult SafeTool::diff(const BinaryImage & /*A*/, const ImageFeatures &FA,
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
           std::pow(shapeAffinity(FA.Funcs[I], FB.Funcs[J]), 0.6);
  });
}

} // namespace

std::unique_ptr<DiffTool> khaos::createSafeTool() {
  return std::make_unique<SafeTool>();
}
