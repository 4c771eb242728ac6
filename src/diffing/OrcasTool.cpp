//===- diffing/OrcasTool.cpp - ORCAS-style semantic-graph matching ---------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ORCAS (arXiv 2506.06161) analogue: obfuscation-resilient binary diffing
/// by dominance-enhanced semantic-graph matching. Each function becomes a
/// graph whose nodes are basic blocks labelled with semantic-category
/// histograms (semanticHistogram over the per-block opcode histograms) and
/// whose edges are the CFG successor edges *plus* dominator-tree edges
/// (analysis/DominatorTree's computeBlockDominance over the machine CFG).
/// Dominance is the enhancement that buys resilience: intra-procedural
/// obfuscation inserts and reorders blocks but rarely changes who
/// dominates whom, so dominator depth and dominator edges survive where
/// layout order does not.
///
/// Pairs are scored by *seeded graph-edit similarity*, with the matcher
/// shared with the SemDiff backend (diffing/SemanticGraph): matching
/// starts from the entry pair (entries always correspond), expands
/// greedily along CFG-successor and dominator-child edges of
/// already-matched pairs — always taking the highest-scoring consistent
/// candidate, with index order breaking ties deterministically — and
/// scores the final matching by matched-node similarity and preserved-edge
/// ratio, i.e. one minus a normalized edit cost. A call-graph context term
/// (in/out degree agreement, the CallGraph-derived features) rounds out
/// the score: fission and fusion rewrite exactly these — dominator
/// subtrees leave for new functions, fused CFGs merge under a dispatcher,
/// and the call graph gains/loses edges — which is why the paper expects
/// even graph matchers to degrade under inter-procedural obfuscation.
///
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"
#include "diffing/SemanticGraph.h"

using namespace khaos;

namespace {

/// Dominance-enhanced semantic graph of one function: every block is a
/// node, labelled with its semantic histogram and dominator depth; CFG
/// successor edges and dominator-tree edges are the two edge kinds. Node
/// kinds are unused (all zero).
SemanticGraph buildGraph(const FunctionFeatures &FF) {
  SemanticGraph G;
  size_t N = FF.BlockHists.size();
  G.NodeSem.reserve(N);
  for (const std::vector<double> &H : FF.BlockHists)
    G.NodeSem.push_back(semanticHistogram(H));
  BlockDominance D = computeBlockDominance(FF.BlockSuccs);
  G.Depth = std::move(D.Depth);
  G.Kind.assign(N, 0);
  G.Edges.resize(2);
  G.Edges[0] = FF.BlockSuccs;
  G.Edges[1].resize(N);
  for (size_t I = 1; I < D.RPO.size(); ++I)
    G.Edges[1][D.RPO[D.IDom[I]]].push_back(D.RPO[I]);
  return G;
}

/// The graph-edit similarity alone: ORCAS's evidence is the graph.
double graphOnlyMix(double Graph, const FunctionFeatures &,
                    const FunctionFeatures &) {
  return Graph;
}

class OrcasTool : public DiffTool {
public:
  const char *getName() const override { return "orcas"; }
  ToolTraits getTraits() const override {
    ToolTraits T;
    T.TimeConsuming = true; // Per-pair graph matching.
    T.UsesCallGraph = true; // Call-context term + callee features.
    return T;
  }
  DiffResult diff(const BinaryImage & /*A*/, const ImageFeatures &FA,
                  const BinaryImage & /*B*/,
                  const ImageFeatures &FB) const override {
    return rankGraphMatches(FA, FB, buildGraph, graphOnlyMix);
  }
};

} // namespace

std::unique_ptr<DiffTool> khaos::createOrcasTool() {
  return std::make_unique<OrcasTool>();
}
