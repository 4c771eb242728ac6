//===- diffing/SemanticGraph.h - Seeded semantic-graph matching -*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scoring core of the graph-matching backends (the ORCAS- and
/// SemDiff-style tools). Each backend turns a function into a
/// SemanticGraph — its own choice of nodes, node kinds and edge kinds —
/// and keeps its own score mix; everything in between is shared:
///
///   * node similarity: semantic-histogram cosine, scaled by node-kind
///     agreement (Jaccard over the kind bits; two all-zero kinds agree
///     fully) and damped by dominator-depth distance;
///   * seeded greedy graph-edit matching: the entry pair seeds, matched
///     pairs propose their neighbours along every edge kind, the best
///     consistent candidate is adopted with index order breaking ties —
///     so the result is a pure function of the two graphs — and the
///     matching scores by matched-node similarity and the ratio of edges
///     it preserves;
///   * a cheap pre-filter that keeps hopeless pairs away from the
///     matcher, and a call-graph context factor on every matched score.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_DIFFING_SEMANTICGRAPH_H
#define KHAOS_DIFFING_SEMANTICGRAPH_H

#include "diffing/DiffTool.h"

#include <cstdint>
#include <vector>

namespace khaos {

/// One function as a graph backend sees it. Node 0 is the entry.
struct SemanticGraph {
  std::vector<std::vector<double>> NodeSem; ///< Semantic hist per node.
  std::vector<int32_t> Depth; ///< Dominator depth; -1 = unreachable.
  std::vector<uint8_t> Kind;  ///< Backend-defined node-kind bitmask.
  /// Edges[K][I] lists the targets of node I's edges of kind K. Matching
  /// expands along every kind, and an edge counts as preserved only when
  /// the matching maps it onto an edge of the same kind.
  std::vector<std::vector<std::vector<uint32_t>>> Edges;
  size_t NumEdges = 0; ///< Over all kinds; set by rankGraphMatches.
};

using SemanticGraphBuilder = SemanticGraph (*)(const FunctionFeatures &);

/// A backend's per-pair score from the graph-edit similarity of the
/// pair's graphs and the two functions' features.
using GraphScoreMix = double (*)(double GraphSim, const FunctionFeatures &X,
                                 const FunctionFeatures &Y);

/// Builds every function's graph with \p Build and ranks the pairs
/// (rankByScore, best scores clamped to [0, 1]). A pair that passes the
/// pre-filter scores \p Mix(graph-edit similarity, X, Y) scaled by the
/// call-context factor; a hopeless one gets a fallback below any matched
/// pair's score.
DiffResult rankGraphMatches(const ImageFeatures &FA, const ImageFeatures &FB,
                            SemanticGraphBuilder Build, GraphScoreMix Mix);

} // namespace khaos

#endif // KHAOS_DIFFING_SEMANTICGRAPH_H
