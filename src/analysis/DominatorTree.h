//===- analysis/DominatorTree.h - Dominance analysis ------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree built with the Cooper-Harvey-Kennedy algorithm
/// ("A Simple, Fast Dominance Algorithm"). Fission's region identification
/// (paper Algorithm 1) enumerates dominator-tree subtrees as candidate
/// regions, because a subtree is single-entry and can become a function.
/// The IR verifier checks cross-block uses against it, so it is built for
/// every verified function: construction scans each terminator once, no
/// traversal recurses (long SplitBB-style block chains cannot overflow the
/// stack), and dominates() is O(1) via dominator-tree preorder intervals.
/// The index-level core, computeBlockDominance, is the repository's one
/// dominance implementation: it also serves the machine CFGs that the
/// ORCAS- and SemDiff-style diffing backends label with dominator depths.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_ANALYSIS_DOMINATORTREE_H
#define KHAOS_ANALYSIS_DOMINATORTREE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace khaos {

class BasicBlock;
class Function;

/// Dominance over a CFG given as per-block successor-index lists: the
/// Cooper-Harvey-Kennedy core DominatorTree is built on, shared with the
/// machine-level CFGs the graph-matching diffing backends read. Block 0
/// is the entry; successor indices out of range are ignored.
struct BlockDominance {
  /// Reachable blocks in reverse postorder of the recursive DFS from the
  /// entry (successors in list order, first visit wins); RPO[0] == 0.
  std::vector<uint32_t> RPO;
  /// Immediate dominator of RPO[I] as an RPO number; IDom[0] == 0.
  std::vector<uint32_t> IDom;
  /// Dominator-tree depth of every block (the entry is 0); -1 for
  /// unreachable blocks.
  std::vector<int32_t> Depth;
};

BlockDominance
computeBlockDominance(const std::vector<std::vector<uint32_t>> &Succs);

/// Dominator tree over a function's CFG. Unreachable blocks are excluded
/// from the tree (isReachable() reports membership).
class DominatorTree {
public:
  explicit DominatorTree(const Function &F);

  const Function &getFunction() const { return F; }

  bool isReachable(const BasicBlock *BB) const {
    return rpoNumber(BB) != NotReachable;
  }

  /// Immediate dominator; null for the entry block and unreachable blocks.
  BasicBlock *getIDom(const BasicBlock *BB) const;

  /// True when \p A dominates \p B (reflexively). False when either block
  /// is unreachable.
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

  /// Children of \p BB in the dominator tree.
  const std::vector<BasicBlock *> &getChildren(const BasicBlock *BB) const;

  /// All blocks dominated by \p BB (the subtree rooted at \p BB),
  /// in dominator-tree preorder. This is a candidate fission region.
  std::vector<BasicBlock *> getSubtree(const BasicBlock *BB) const;

  /// Reachable blocks in reverse postorder.
  const std::vector<BasicBlock *> &getRPO() const { return RPO; }

private:
  static constexpr unsigned NotReachable = ~0u;

  /// Position of \p BB in getRPO(), or NotReachable.
  unsigned rpoNumber(const BasicBlock *BB) const {
    auto It = RPONumber.find(BB);
    return It == RPONumber.end() ? NotReachable : It->second;
  }

  const Function &F;
  std::vector<BasicBlock *> RPO;
  std::unordered_map<const BasicBlock *, unsigned> RPONumber;
  // The per-node vectors below are indexed by RPO number.
  std::vector<unsigned> IDom; ///< The entry maps to itself.
  std::vector<std::vector<BasicBlock *>> Children;
  /// Dominator-tree preorder number and subtree size: A dominates B
  /// exactly when In[A] <= In[B] < In[A] + Size[A].
  std::vector<unsigned> In, Size;
  static const std::vector<BasicBlock *> Empty;
};

} // namespace khaos

#endif // KHAOS_ANALYSIS_DOMINATORTREE_H
