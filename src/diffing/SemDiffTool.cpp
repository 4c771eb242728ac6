//===- diffing/SemDiffTool.cpp - Key-semantics-graph diffing ---------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SemDiff-style backend: semantic slicing before matching. The observable
/// behaviour of a function flows through few places — the values it feeds
/// into calls, the stores it makes to memory, and what it returns — so the
/// tool reduces every function to its *key-semantics graph* first: the
/// blocks that host a call, an indirect call, a memory write or a return
/// (plus the entry and any block without successors), connected by the
/// contracted CFG paths between them. Everything else — the opaque
/// predicates, the dispatcher scaffolding, the flattening switch blocks
/// that intra-procedural obfuscators add — is plumbing between key blocks
/// and collapses into edges of the reduced graph.
///
/// Nodes keep three labels: the semantic-category histogram of the block
/// (semanticHistogram), the block's dominator depth in the *full* CFG
/// (analysis/DominatorTree's computeBlockDominance — depth survives block
/// insertion far better than layout order), and a kind bitmask recording
/// *why* the block is key (call / store / return / entry / exit). Reduced
/// graphs are matched by the seeded greedy graph-edit matcher the ORCAS
/// backend uses too (diffing/SemanticGraph) — entries seed, matched pairs
/// propose their reduced successors, ties break on index order so the
/// result is a pure function of the two graphs — and the per-pair score
/// mixes the graph-edit similarity with a whole-function opcode-histogram
/// cosine and a call-graph context term.
///
/// Inter-procedural obfuscation attacks exactly this reduction: fission
/// turns a store-reaching path into a call to a new function (the key
/// block's kind flips from store to call), and fusion merges two key
/// graphs under one dispatcher — which is why the paper's thesis predicts
/// even semantics-sliced matchers degrade under Khaos.
///
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"
#include "codegen/TargetISA.h"
#include "diffing/SemanticGraph.h"
#include "support/Statistics.h"

#include <algorithm>

using namespace khaos;

namespace {

/// Why a block is part of the key-semantics graph.
enum KeyKind : uint8_t {
  KindCall = 1,   ///< Hosts a direct or indirect call.
  KindStore = 2,  ///< Writes memory.
  KindReturn = 4, ///< Returns.
  KindEntry = 8,  ///< Function entry (always key: the seed pair).
  KindExit = 16,  ///< No successors (the function's sinks are observable).
};

size_t hist(const std::vector<double> &H, MOp Op) {
  size_t I = static_cast<size_t>(Op);
  return I < H.size() && H[I] > 0.0 ? 1 : 0;
}

/// Reduced key-semantics graph of one function: the key blocks, with
/// KeyKind node kinds and the contracted CFG paths as the one edge kind.
SemanticGraph buildKeyGraph(const FunctionFeatures &FF) {
  SemanticGraph G;
  size_t N = FF.BlockHists.size();
  if (N == 0)
    return G;

  // Classify blocks. The entry and every successor-less block are key even
  // without key instructions, so the graph always has a seed node and the
  // function's sinks survive the contraction.
  std::vector<int32_t> KeyIdx(N, -1);
  for (size_t B = 0; B != N; ++B) {
    const std::vector<double> &H = FF.BlockHists[B];
    uint8_t K = 0;
    if (hist(H, MOp::Call) || hist(H, MOp::CallIndirect))
      K |= KindCall;
    if (hist(H, MOp::StoreM))
      K |= KindStore;
    if (hist(H, MOp::Ret))
      K |= KindReturn;
    if (B == 0)
      K |= KindEntry;
    if (B >= FF.BlockSuccs.size() || FF.BlockSuccs[B].empty())
      K |= KindExit;
    if (K) {
      KeyIdx[B] = static_cast<int32_t>(G.Kind.size());
      G.Kind.push_back(K);
    }
  }

  std::vector<int32_t> Depths = computeBlockDominance(FF.BlockSuccs).Depth;
  size_t NK = G.Kind.size();
  G.NodeSem.reserve(NK);
  G.Depth.reserve(NK);
  G.Edges.resize(1);
  G.Edges[0].resize(NK);
  for (size_t B = 0; B != N; ++B) {
    if (KeyIdx[B] < 0)
      continue;
    G.NodeSem.push_back(semanticHistogram(FF.BlockHists[B]));
    G.Depth.push_back(Depths[B]);
  }

  // Contract: key block K gains an edge to every key block reachable from
  // its CFG successors through non-key blocks only. BFS with a visited
  // set, targets sorted for determinism.
  std::vector<uint8_t> Visited(N, 0);
  std::vector<uint32_t> Work;
  for (size_t B = 0; B != N; ++B) {
    if (KeyIdx[B] < 0)
      continue;
    std::fill(Visited.begin(), Visited.end(), 0);
    Work.clear();
    if (B < FF.BlockSuccs.size())
      for (uint32_t S : FF.BlockSuccs[B])
        if (S < N && !Visited[S]) {
          Visited[S] = 1;
          Work.push_back(S);
        }
    std::vector<uint32_t> &Out = G.Edges[0][static_cast<size_t>(KeyIdx[B])];
    for (size_t W = 0; W != Work.size(); ++W) {
      uint32_t Cur = Work[W];
      if (KeyIdx[Cur] >= 0) {
        Out.push_back(static_cast<uint32_t>(KeyIdx[Cur]));
        continue; // Paths stop at the first key block they hit.
      }
      if (Cur < FF.BlockSuccs.size())
        for (uint32_t S : FF.BlockSuccs[Cur])
          if (S < N && !Visited[S]) {
            Visited[S] = 1;
            Work.push_back(S);
          }
    }
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  }
  return G;
}

/// The key-graph similarity, blended with a whole-function opcode
/// histogram cosine.
double keyScoreMix(double Graph, const FunctionFeatures &X,
                   const FunctionFeatures &Y) {
  double OpCos = cosineSimilarity(X.OpcodeHist, Y.OpcodeHist);
  return 0.8 * Graph + 0.2 * std::max(OpCos, 0.0);
}

class SemDiffTool : public DiffTool {
public:
  const char *getName() const override { return "semdiff"; }
  ToolTraits getTraits() const override {
    ToolTraits T;
    T.TimeConsuming = true; // Per-pair graph contraction + matching.
    T.UsesCallGraph = true; // Call-context term + call-kind node labels.
    return T;
  }
  DiffResult diff(const BinaryImage & /*A*/, const ImageFeatures &FA,
                  const BinaryImage & /*B*/,
                  const ImageFeatures &FB) const override {
    return rankGraphMatches(FA, FB, buildKeyGraph, keyScoreMix);
  }
};

} // namespace

std::unique_ptr<DiffTool> khaos::createSemDiffTool() {
  return std::make_unique<SemDiffTool>();
}
