//===- diffing/SemanticGraph.cpp - Seeded semantic-graph matching ---------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "diffing/SemanticGraph.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>

using namespace khaos;

namespace {

/// Node similarity: semantic-label cosine, scaled by kind agreement (a
/// store block matching a call block is weaker evidence than
/// store-for-store) and damped by dominator-depth distance (a block that
/// moved far across the dominator tree is a worse correspondence even
/// when its instruction mix matches).
double nodeSimilarity(const SemanticGraph &A, uint32_t I,
                      const SemanticGraph &B, uint32_t J) {
  double Sem = cosineSimilarity(A.NodeSem[I], B.NodeSem[J]);
  if (Sem <= 0.0)
    return 0.0;
  unsigned Inter = static_cast<unsigned>(A.Kind[I] & B.Kind[J]);
  unsigned Union = static_cast<unsigned>(A.Kind[I] | B.Kind[J]);
  double Jac = Union ? (double)__builtin_popcount(Inter) /
                           (double)__builtin_popcount(Union)
                     : 1.0;
  double Sim = Sem * (0.5 + 0.5 * Jac);
  int32_t DA = A.Depth[I], DB = B.Depth[J];
  if (DA < 0 || DB < 0)
    return 0.25 * Sim; // Unreachable block: weak evidence only.
  return Sim * std::exp(-0.2 * std::abs(DA - DB));
}

/// Seeded greedy graph matching; returns the graph-edit similarity of the
/// matching found, in [0, 1].
double graphEditSimilarity(const SemanticGraph &A, const SemanticGraph &B) {
  size_t NA = A.NodeSem.size(), NB = B.NodeSem.size();
  if (NA == 0 || NB == 0)
    return NA == NB ? 1.0 : 0.0;

  constexpr double MinNodeSim = 0.1;
  std::vector<int32_t> MatchA(NA, -1), MatchB(NB, -1);
  std::vector<std::pair<uint32_t, uint32_t>> Matched;
  Matched.reserve(std::min(NA, NB));
  double NodeScore = 0.0;

  // Candidate pairs proposed by already-matched pairs; the entry pair
  // seeds the expansion (function entries always correspond). Node
  // similarity is a pure function of the pair, so it is computed once at
  // push time and cached with the candidate.
  struct Candidate {
    std::pair<uint32_t, uint32_t> Pair;
    double Sim;
  };
  std::vector<Candidate> Frontier;
  auto Adopt = [&](uint32_t I, uint32_t J, double Sim) {
    MatchA[I] = static_cast<int32_t>(J);
    MatchB[J] = static_cast<int32_t>(I);
    Matched.push_back({I, J});
    NodeScore += Sim;
    for (size_t K = 0; K != A.Edges.size(); ++K)
      for (uint32_t SA : A.Edges[K][I])
        for (uint32_t SB : B.Edges[K][J]) {
          if (SA >= NA || SB >= NB)
            continue;
          double S = nodeSimilarity(A, SA, B, SB);
          if (S > MinNodeSim)
            Frontier.push_back({{SA, SB}, S});
        }
  };
  double EntrySim = nodeSimilarity(A, 0, B, 0);
  Adopt(0, 0, std::max(EntrySim, MinNodeSim));

  // Greedy expansion: scan the frontier for the best still-consistent
  // candidate, adopt it, repeat. Ties break on (A index, B index), so the
  // matching — and with it the whole DiffResult — is a pure function of
  // the two graphs. Candidates invalidated by an adoption are compacted
  // away up front, so each survives at most one scan beyond its last
  // consideration and similarities are never recomputed.
  for (;;) {
    Frontier.erase(std::remove_if(Frontier.begin(), Frontier.end(),
                                  [&](const Candidate &C) {
                                    return MatchA[C.Pair.first] >= 0 ||
                                           MatchB[C.Pair.second] >= 0;
                                  }),
                   Frontier.end());
    double BestSim = MinNodeSim;
    size_t BestIdx = SIZE_MAX;
    for (size_t C = 0; C != Frontier.size(); ++C) {
      if (Frontier[C].Sim > BestSim ||
          (Frontier[C].Sim == BestSim && BestIdx != SIZE_MAX &&
           Frontier[C].Pair < Frontier[BestIdx].Pair))
        BestSim = Frontier[C].Sim, BestIdx = C;
    }
    if (BestIdx == SIZE_MAX)
      break;
    auto [I, J] = Frontier[BestIdx].Pair;
    Adopt(I, J, BestSim);
  }

  // Preserved-edge ratio: a matched A edge whose endpoints map to a B
  // edge of the same kind costs no edit; everything else does.
  size_t Preserved = 0;
  for (auto [I, J] : Matched)
    for (size_t K = 0; K != A.Edges.size(); ++K) {
      const std::vector<uint32_t> &OutB = B.Edges[K][J];
      for (uint32_t SA : A.Edges[K][I])
        if (SA < NA && MatchA[SA] >= 0 &&
            std::find(OutB.begin(), OutB.end(),
                      static_cast<uint32_t>(MatchA[SA])) != OutB.end())
          ++Preserved;
    }
  double EdgeScore = A.NumEdges + B.NumEdges == 0
                         ? 1.0
                         : 2.0 * (double)Preserved /
                               (double)(A.NumEdges + B.NumEdges);
  double MatchedNodeScore = 2.0 * NodeScore / (double)(NA + NB);
  return 0.65 * MatchedNodeScore + 0.35 * EdgeScore;
}

/// Call-graph context agreement in (0, 1]: in/out degree similarity.
double callContext(const FunctionFeatures &X, const FunctionFeatures &Y) {
  double In = 1.0 - std::abs((double)X.CallGraphIn - (double)Y.CallGraphIn) /
                        (X.CallGraphIn + Y.CallGraphIn + 1.0);
  double Out = 1.0 -
               std::abs((double)X.CallGraphOut - (double)Y.CallGraphOut) /
                   (X.CallGraphOut + Y.CallGraphOut + 1.0);
  return In * Out;
}

std::vector<SemanticGraph> buildGraphs(const ImageFeatures &F,
                                       SemanticGraphBuilder Build) {
  std::vector<SemanticGraph> Graphs;
  Graphs.reserve(F.Funcs.size());
  for (const FunctionFeatures &FF : F.Funcs) {
    Graphs.push_back(Build(FF));
    SemanticGraph &G = Graphs.back();
    for (const std::vector<std::vector<uint32_t>> &Kind : G.Edges)
      for (const std::vector<uint32_t> &Out : Kind)
        G.NumEdges += Out.size();
  }
  return Graphs;
}

} // namespace

DiffResult khaos::rankGraphMatches(const ImageFeatures &FA,
                                   const ImageFeatures &FB,
                                   SemanticGraphBuilder Build,
                                   GraphScoreMix Mix) {
  std::vector<SemanticGraph> GA = buildGraphs(FA, Build);
  std::vector<SemanticGraph> GB = buildGraphs(FB, Build);
  return rankByScore(
      FA.Funcs.size(), FB.Funcs.size(),
      [&](size_t I, size_t J) {
        const FunctionFeatures &X = FA.Funcs[I], &Y = FB.Funcs[J];
        // Cheap pre-filter: a pair whose whole-function semantics and
        // shape are hopeless never reaches the quadratic matcher. The
        // fallback score stays below any matched pair's, preserving
        // ranking quality while bounding cost on large matrices.
        double Gate = cosineSimilarity(X.SemanticVec, Y.SemanticVec) *
                      shapeAffinity(X, Y);
        if (Gate < 0.005)
          return 0.05 * std::max(Gate, 0.0);
        return Mix(graphEditSimilarity(GA[I], GB[J]), X, Y) *
               (0.85 + 0.15 * callContext(X, Y));
      },
      /*Lo=*/0.0, /*Hi=*/1.0);
}
