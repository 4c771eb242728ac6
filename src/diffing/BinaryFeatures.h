//===- diffing/BinaryFeatures.h - Shared feature extraction -----*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline feature extraction (the first stage of every diffing workflow,
/// paper §2.1). Each tool consumes a subset: BinDiff the
/// (blocks, edges, calls) triple + names + call graph; VulSeeker semantic
/// category counts; Asm2Vec/SAFE token sequences; DeepBinDiff per-block
/// vectors + the inter-procedural CFG.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_DIFFING_BINARYFEATURES_H
#define KHAOS_DIFFING_BINARYFEATURES_H

#include "codegen/BinaryImage.h"

#include <cstdint>
#include <string>
#include <vector>

namespace khaos {

/// Number of semantic categories VulSeeker-style features use.
constexpr unsigned NumSemanticCategories = 8;

/// Per-function features.
struct FunctionFeatures {
  std::string Name;
  // BinDiff triple.
  unsigned NumBlocks = 0;
  unsigned NumEdges = 0;
  unsigned NumCalls = 0;
  unsigned NumIndirectCalls = 0;
  unsigned NumInsts = 0;
  // Call-graph degrees.
  unsigned CallGraphIn = 0;
  unsigned CallGraphOut = 0;
  std::vector<uint32_t> Callees; ///< Function indices (direct, resolved).
  // Vectors.
  std::vector<double> OpcodeHist;           ///< NumMOpcodes
  std::vector<double> SemanticVec;          ///< NumSemanticCategories
  std::vector<int64_t> Immediates;          ///< Distinctive constants.
  std::vector<unsigned> TokenSeq;           ///< Opcode tokens in layout order.
  std::vector<std::vector<double>> BlockHists; ///< Per-block opcode hist.
  /// Per-block successor indices (entry = block 0): the machine CFG the
  /// graph backends hand to analysis/DominatorTree's
  /// computeBlockDominance for dominator depths and edges.
  std::vector<std::vector<uint32_t>> BlockSuccs;
};

/// Whole-image features.
struct ImageFeatures {
  std::vector<FunctionFeatures> Funcs; ///< Parallel to Image.Functions.
};

/// Extracts all features from \p Image.
ImageFeatures extractFeatures(const BinaryImage &Image);

/// Semantic category of one machine instruction (VulSeeker-style):
/// 0 transfer, 1 arithmetic, 2 logic, 3 memory, 4 compare, 5 call,
/// 6 branch, 7 fp.
unsigned semanticCategory(const MInst &I);

/// Obfuscation-robust token class used by the learned-embedding
/// analogues: like semanticCategory but with arithmetic and logic merged,
/// because instruction substitution rewrites within that union.
unsigned robustTokenClass(unsigned Opcode);

/// Multiplicative affinity in (0, 1] from the CFG shape distance
/// exp(-L1(log-shape)). Intra-procedural obfuscation perturbs the shape
/// mildly; moving code across functions (fission/fusion) changes every
/// component multiplicatively and drives the affinity towards zero.
double shapeAffinity(const FunctionFeatures &A, const FunctionFeatures &B);

/// Condenses a per-block opcode histogram (length NumMOpcodes) to the
/// NumSemanticCategories semantic categories — the node labels of the
/// semantic graphs.
std::vector<double> semanticHistogram(const std::vector<double> &OpcodeHist);

} // namespace khaos

#endif // KHAOS_DIFFING_BINARYFEATURES_H
