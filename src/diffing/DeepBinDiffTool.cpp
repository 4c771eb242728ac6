//===- diffing/DeepBinDiffTool.cpp - DeepBinDiff-style block matching -------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DeepBinDiff (Duan et al., NDSS'20) analogue: basic-block embeddings
/// (token vectors + two rounds of propagation over the inter-procedural
/// CFG, including call edges into callee entry blocks) matched greedily
/// across binaries. Function-level rankings are derived from how many of a
/// function's blocks match blocks of the candidate — the paper judges a
/// block pair successful when the owning functions match, so this is the
/// relaxed judgment's natural aggregation. The real tool is notoriously
/// memory-hungry; the traits reflect that.
///
//===----------------------------------------------------------------------===//

#include "diffing/DiffTool.h"
#include "diffing/Embedding.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>

using namespace khaos;

namespace {

/// Global block id: (function index, block index).
struct BlockRef {
  uint32_t Func = 0;
  uint32_t Block = 0;
};

class DeepBinDiffTool : public DiffTool {
public:
  const char *getName() const override { return "DeepBinDiff"; }
  ToolTraits getTraits() const override {
    ToolTraits T;
    T.Granularity = ToolGranularity::BasicBlock;
    T.TimeConsuming = true;
    T.MemoryConsuming = true;
    T.UsesCallGraph = true;
    return T;
  }
  DiffResult diff(const BinaryImage &A, const ImageFeatures &FA,
                  const BinaryImage &B,
                  const ImageFeatures &FB) const override;

private:
  static std::vector<std::vector<double>>
  embedBlocks(const ImageFeatures &F, std::vector<BlockRef> &Refs);
};

std::vector<std::vector<double>>
DeepBinDiffTool::embedBlocks(const ImageFeatures &F,
                             std::vector<BlockRef> &Refs) {
  // Initial embeddings: token vectors from the block histogram.
  std::vector<std::vector<double>> Vecs;
  std::vector<size_t> FuncStart(F.Funcs.size() + 1, 0);
  for (size_t FI = 0; FI != F.Funcs.size(); ++FI) {
    FuncStart[FI] = Vecs.size();
    const FunctionFeatures &FF = F.Funcs[FI];
    for (size_t BI = 0; BI != FF.BlockHists.size(); ++BI) {
      std::vector<double> Content(EmbeddingDim, 0.0);
      for (unsigned Op = 0; Op != NumMOpcodes; ++Op)
        if (FF.BlockHists[BI][Op] > 0) {
          accumulateToken(Content, 100 + robustTokenClass(Op),
                          FF.BlockHists[BI][Op]);
          accumulateToken(Content, Op, 0.2 * FF.BlockHists[BI][Op]);
        }
      // Intra-function position and local shape: fission relocates blocks
      // into fresh functions (positions collapse towards the entry) and
      // fusion shifts them behind the ctrl dispatch.
      double NB = std::max<double>(FF.BlockHists.size(), 1.0);
      std::vector<double> Pos = {
          (double)BI / NB, std::log1p(NB) / 4.0,
          (double)FF.BlockSuccs[BI].size() / 3.0,
          std::log1p((double)FF.NumCalls) / 3.0};
      std::vector<double> V;
      appendSegment(V, std::move(Content), 1.0);
      appendSegment(V, std::move(Pos), 1.2);
      Vecs.push_back(std::move(V));
      Refs.push_back({(uint32_t)FI, (uint32_t)BI});
    }
  }
  FuncStart[F.Funcs.size()] = Vecs.size();

  // Inter-procedural adjacency: CFG successors + call edges into callee
  // entries.
  std::vector<std::vector<uint32_t>> Adj(Vecs.size());
  for (size_t FI = 0; FI != F.Funcs.size(); ++FI) {
    const FunctionFeatures &FF = F.Funcs[FI];
    for (size_t BI = 0; BI != FF.BlockSuccs.size(); ++BI) {
      uint32_t Self = static_cast<uint32_t>(FuncStart[FI] + BI);
      for (uint32_t S : FF.BlockSuccs[BI])
        if (FuncStart[FI] + S < FuncStart[FI + 1])
          Adj[Self].push_back(static_cast<uint32_t>(FuncStart[FI] + S));
    }
    for (uint32_t Callee : FF.Callees)
      if (Callee < F.Funcs.size() &&
          FuncStart[Callee] < FuncStart[Callee + 1])
        Adj[FuncStart[FI]].push_back(
            static_cast<uint32_t>(FuncStart[Callee]));
  }

  // Four strong propagation rounds: the program-wide context dominates
  // the embedding, which is what makes the real tool sensitive to
  // call-graph and control-flow restructuring (paper §4.2).
  for (int Round = 0; Round != 4; ++Round) {
    std::vector<std::vector<double>> Next = Vecs;
    for (size_t I = 0; I != Vecs.size(); ++I) {
      if (Adj[I].empty())
        continue;
      for (uint32_t N : Adj[I])
        for (unsigned K = 0; K != Vecs[I].size(); ++K)
          Next[I][K] += 0.8 * Vecs[N][K] / Adj[I].size();
    }
    Vecs = std::move(Next);
  }
  return Vecs;
}

DiffResult DeepBinDiffTool::diff(const BinaryImage & /*A*/,
                                 const ImageFeatures &FA,
                                 const BinaryImage & /*B*/,
                                 const ImageFeatures &FB) const {
  size_t NA = FA.Funcs.size(), NB = FB.Funcs.size();
  std::vector<BlockRef> RefsA, RefsB;
  std::vector<std::vector<double>> VA = embedBlocks(FA, RefsA);
  std::vector<std::vector<double>> VB = embedBlocks(FB, RefsB);

  // For each A block, its best-matching B block contributes a vote to
  // (ownerA, ownerB).
  std::vector<std::vector<double>> Votes(NA, std::vector<double>(NB, 0.0));
  for (size_t I = 0; I != VA.size(); ++I) {
    double Best = -2.0;
    size_t BestJ = 0;
    for (size_t J = 0; J != VB.size(); ++J) {
      double S = cosineSimilarity(VA[I], VB[J]);
      if (S > Best) {
        Best = S;
        BestJ = J;
      }
    }
    if (!VB.empty() && Best > 0)
      Votes[RefsA[I].Func][RefsB[BestJ].Func] += Best;
  }

  return rankByScore(
      NA, NB,
      [&](size_t I, size_t J) {
        return Votes[I][J] / std::max<double>(FA.Funcs[I].NumBlocks, 1.0);
      },
      /*Lo=*/-HUGE_VAL, /*Hi=*/1.0);
}

} // namespace

std::unique_ptr<DiffTool> khaos::createDeepBinDiffTool() {
  return std::make_unique<DeepBinDiffTool>();
}
