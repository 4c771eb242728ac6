//===- obfuscation/RegionIdentifier.h - Paper Algorithm 1 -------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Region identification for the fission primitive (paper §3.2.1,
/// Algorithm 1). Candidate regions are dominator-tree subtrees: single
/// entry, extractable as a function. Each subtree is scored
/// effect/cost where effect = block count and cost = static execution
/// frequency of the head (multiplied by the assumed trip count when the
/// head sits in a loop). The most cost-effective disjoint subtrees win.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_OBFUSCATION_REGIONIDENTIFIER_H
#define KHAOS_OBFUSCATION_REGIONIDENTIFIER_H

#include <vector>

namespace khaos {

class BasicBlock;
class Function;

/// One candidate region: a dominator subtree rooted at Head.
struct Region {
  BasicBlock *Head = nullptr;
  std::vector<BasicBlock *> Blocks; ///< Subtree in preorder (Head first).
  double Effect = 0.0;              ///< Obfuscation gain (block count).
  double Cost = 0.0;                ///< Cut cost (head frequency).
  double value() const { return Cost > 0 ? Effect / Cost : Effect; }
};

/// Knobs for region selection.
struct RegionOptions {
  unsigned MinBlocks = 2;  ///< Smaller subtrees are not worth a call.
  /// Ablation switch: ignore the frequency cost term of Algorithm 1 and
  /// pick regions by size alone.
  bool IgnoreFrequencyCost = false;
};

/// Runs Algorithm 1 on \p F and returns the selected disjoint regions (at
/// most five), most valuable first. Regions that cannot be extracted safely
/// (setjmp call sites, EH edges crossing the boundary, returns-with-throw,
/// allocas escaping the region) are filtered out.
std::vector<Region> identifyRegions(Function &F,
                                    const RegionOptions &Opts = {});

} // namespace khaos

#endif // KHAOS_OBFUSCATION_REGIONIDENTIFIER_H
