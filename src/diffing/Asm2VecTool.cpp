//===- diffing/Asm2VecTool.cpp - Asm2Vec-style embeddings --------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Asm2Vec (Ding et al., S&P'19) analogue: a PV-DM-style representation
/// approximated by hashing — unigram opcode vectors plus intra-block
/// bigram vectors aggregated over the function, cosine similarity. The
/// intra-block bigrams make it robust to block reordering but sensitive
/// to the instruction mix, matching the published behaviour against
/// intra-procedural obfuscation.
///
//===----------------------------------------------------------------------===//

#include "diffing/DiffTool.h"
#include "diffing/Embedding.h"
#include "support/Statistics.h"

#include <cmath>

#include <algorithm>

using namespace khaos;

namespace {

class Asm2VecTool : public DiffTool {
public:
  const char *getName() const override { return "Asm2Vec"; }
  ToolTraits getTraits() const override { return {}; }
  DiffResult diff(const BinaryImage &A, const ImageFeatures &FA,
                  const BinaryImage &B,
                  const ImageFeatures &FB) const override;

private:
  static std::vector<double> embed(const FunctionFeatures &F);
};

std::vector<double> Asm2VecTool::embed(const FunctionFeatures &F) {
  // Three normalized segments: robust token classes (substitution-proof),
  // raw opcodes (discriminative detail), and CFG/call shape — the part of
  // the representation intra-procedural obfuscation cannot disturb but
  // inter-procedural code motion does.
  std::vector<double> Classes(EmbeddingDim, 0.0);
  std::vector<double> Raw(EmbeddingDim, 0.0);
  for (size_t BI = 0; BI != F.BlockHists.size(); ++BI) {
    for (unsigned Op = 0; Op != NumMOpcodes; ++Op)
      if (F.BlockHists[BI][Op] > 0) {
        accumulateToken(Classes, 100 + robustTokenClass(Op),
                        F.BlockHists[BI][Op]);
        accumulateToken(Raw, Op, F.BlockHists[BI][Op]);
      }
  }
  // Sequence bigrams over class tokens (random-walk surrogate).
  for (size_t I = 0; I + 1 < F.TokenSeq.size(); ++I)
    accumulateToken(Classes,
                    bigramToken(robustTokenClass(F.TokenSeq[I]),
                                robustTokenClass(F.TokenSeq[I + 1])),
                    0.5);
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

DiffResult Asm2VecTool::diff(const BinaryImage & /*A*/,
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
           std::pow(shapeAffinity(FA.Funcs[I], FB.Funcs[J]), 0.8);
  });
}

} // namespace

std::unique_ptr<DiffTool> khaos::createAsm2VecTool() {
  return std::make_unique<Asm2VecTool>();
}
