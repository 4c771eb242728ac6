//===- obfuscation/RegionIdentifier.cpp - Paper Algorithm 1 ---------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "obfuscation/RegionIdentifier.h"

#include "analysis/BlockFrequency.h"
#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "ir/Function.h"

#include <algorithm>
#include <set>

using namespace khaos;

namespace {

/// Algorithm 1 selects at most this many regions per function.
constexpr unsigned MaxRegionsPerFunction = 5;

/// True when \p Blocks can be extracted into a sepFunc without breaking
/// semantics. See the paper's §3.2.4 for the setjmp and EH constraints.
bool isExtractable(const std::set<BasicBlock *> &InRegion) {
  for (BasicBlock *BB : InRegion) {
    for (const auto &I : BB->insts()) {
      switch (I->getOpcode()) {
      case Opcode::Call: {
        const Function *Callee =
            cast<CallInst>(I.get())->getCalledFunction();
        // A setjmp call-site must stay in its original frame: the jmpbuf
        // records this frame's context (paper §3.2.4).
        if (Callee && Callee->getName() == "setjmp")
          return false;
        break;
      }
      case Opcode::Invoke: {
        // The try and its catch must land in the same region, otherwise
        // the unwind edge would cross a call boundary.
        const auto *IV = cast<InvokeInst>(I.get());
        if (!InRegion.count(IV->getUnwindDest()))
          return false;
        break;
      }
      case Opcode::LandingPad: {
        // All invokes unwinding here must sit inside the region too.
        for (BasicBlock *P : BB->predecessors())
          if (!InRegion.count(P))
            return false;
        break;
      }
      case Opcode::Throw:
        return false; // Raw throws unwind the frame; keep them in place.
      case Opcode::Alloca:
        // An alloca whose buffer outlives the region cannot move into a
        // function whose frame dies on return.
        for (const Instruction *U : I->users())
          if (!InRegion.count(U->getParent()))
            return false;
        break;
      default:
        break;
      }
    }
  }
  return true;
}

} // namespace

std::vector<Region> khaos::identifyRegions(Function &F,
                                           const RegionOptions &Opts) {
  std::vector<Region> Selected;
  if (F.isDeclaration() || F.size() < 3)
    return Selected;

  DominatorTree DT(F);
  LoopInfo LI(DT);
  BlockFrequency BF(DT, LI);

  // Build the candidate set: every dominator subtree except the one rooted
  // at the entry ("we won't separate the whole function", Algorithm 1
  // line 3).
  struct Candidate {
    Region R;
    std::set<BasicBlock *> Set;
  };
  std::vector<Candidate> Cands;
  for (const auto &BB : F.blocks()) {
    if (BB.get() == F.getEntryBlock() || !DT.isReachable(BB.get()))
      continue;
    Candidate C;
    C.R.Head = BB.get();
    C.R.Blocks = DT.getSubtree(BB.get());
    if (C.R.Blocks.size() < Opts.MinBlocks)
      continue;
    // Keep a remnant: never extract every non-entry block unless the
    // function is large (the remFunc must stay a plausible function).
    if (C.R.Blocks.size() + 1 >= F.size())
      continue;
    C.Set.insert(C.R.Blocks.begin(), C.R.Blocks.end());
    if (!isExtractable(C.Set))
      continue;

    // Effect: obfuscation gain; cost: cut frequency (Algorithm 1 ll. 7-12).
    C.R.Effect = static_cast<double>(C.R.Blocks.size());
    double Cost = BF.getFrequency(BB.get());
    if (LI.getLoopFor(BB.get()))
      Cost *= LoopInfo::AssumedTripCount;
    if (Opts.IgnoreFrequencyCost)
      Cost = 1.0; // Ablation: size-greedy selection.
    C.R.Cost = Cost > 0 ? Cost : 0.001;
    Cands.push_back(std::move(C));
  }

  // Iteratively take the most cost-effective tree, dropping everything
  // that intersects it (Algorithm 1 ll. 4-21).
  std::vector<bool> Dead(Cands.size(), false);
  while (Selected.size() < MaxRegionsPerFunction) {
    int Best = -1;
    for (size_t I = 0; I != Cands.size(); ++I) {
      if (Dead[I])
        continue;
      if (Best < 0 || Cands[I].R.value() > Cands[Best].R.value())
        Best = static_cast<int>(I);
    }
    if (Best < 0)
      break;
    Selected.push_back(Cands[Best].R);
    const std::set<BasicBlock *> &Taken = Cands[Best].Set;
    for (size_t I = 0; I != Cands.size(); ++I) {
      if (Dead[I])
        continue;
      bool Intersects = false;
      for (BasicBlock *BB : Cands[I].R.Blocks)
        if (Taken.count(BB)) {
          Intersects = true;
          break;
        }
      if (Intersects)
        Dead[I] = true;
    }
  }
  return Selected;
}
