//===- analysis/DominatorTree.cpp - Dominance analysis ----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"

#include "ir/Function.h"

#include <cassert>
#include <utility>

using namespace khaos;

const std::vector<BasicBlock *> DominatorTree::Empty;

BlockDominance
khaos::computeBlockDominance(const std::vector<std::vector<uint32_t>> &Succs) {
  constexpr uint32_t NotReachable = ~0u;
  BlockDominance D;
  const uint32_t NumBlocks = static_cast<uint32_t>(Succs.size());
  D.Depth.assign(NumBlocks, -1);
  if (NumBlocks == 0)
    return D;

  // Postorder from the entry on an explicit stack, visiting successors in
  // order with the first visit winning — exactly the recursive DFS order,
  // so Fission's region enumeration is unchanged, without a stack frame
  // per block.
  std::vector<uint32_t> Post;
  std::vector<char> Seen(NumBlocks, 0);
  std::vector<std::pair<uint32_t, uint32_t>> Stack; // (block, next succ)
  Seen[0] = 1;
  Stack.emplace_back(0, 0);
  while (!Stack.empty()) {
    const uint32_t B = Stack.back().first;
    uint32_t &Next = Stack.back().second;
    if (Next == Succs[B].size()) {
      Post.push_back(B);
      Stack.pop_back();
      continue;
    }
    const uint32_t S = Succs[B][Next++];
    if (S < NumBlocks && !Seen[S]) {
      Seen[S] = 1;
      Stack.emplace_back(S, 0);
    }
  }

  const uint32_t N = static_cast<uint32_t>(Post.size());
  D.RPO.assign(Post.rbegin(), Post.rend());
  std::vector<uint32_t> RPOOf(NumBlocks, NotReachable);
  for (uint32_t I = 0; I != N; ++I)
    RPOOf[D.RPO[I]] = I;

  // Predecessor lists in RPO numbers, each reachable predecessor once, in
  // block order (what BasicBlock::predecessors() reports).
  std::vector<std::vector<uint32_t>> Preds(N);
  for (uint32_t L = 0; L != NumBlocks; ++L) {
    const uint32_t P = RPOOf[L];
    if (P == NotReachable)
      continue;
    for (uint32_t S : Succs[L]) {
      if (S >= NumBlocks)
        continue;
      std::vector<uint32_t> &SP = Preds[RPOOf[S]];
      if (SP.empty() || SP.back() != P)
        SP.push_back(P);
    }
  }

  // Cooper-Harvey-Kennedy iteration over RPO numbers; the entry is 0.
  std::vector<uint32_t> &IDom = D.IDom;
  IDom.assign(N, NotReachable);
  IDom[0] = 0;
  auto Intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (A > B)
        A = IDom[A];
      while (B > A)
        B = IDom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t I = 1; I != N; ++I) {
      uint32_t NewIDom = NotReachable;
      for (uint32_t P : Preds[I]) {
        if (IDom[P] == NotReachable)
          continue; // Not processed yet.
        NewIDom = NewIDom == NotReachable ? P : Intersect(NewIDom, P);
      }
      assert(NewIDom != NotReachable &&
             "reachable block without processed predecessor");
      if (IDom[I] != NewIDom) {
        IDom[I] = NewIDom;
        Changed = true;
      }
    }
  }

  // A block's immediate dominator precedes it in RPO.
  D.Depth[0] = 0;
  for (uint32_t I = 1; I != N; ++I)
    D.Depth[D.RPO[I]] = D.Depth[D.RPO[IDom[I]]] + 1;
  return D;
}

DominatorTree::DominatorTree(const Function &F) : F(F) {
  if (F.blocks().empty())
    return;

  // Read every terminator once: successor lists by layout position.
  // Successors outside F (malformed IR the verifier rejects before it
  // builds a tree) are ignored.
  const auto &Blocks = F.blocks();
  const unsigned NumBlocks = static_cast<unsigned>(Blocks.size());
  std::unordered_map<const BasicBlock *, unsigned> Layout;
  Layout.reserve(NumBlocks);
  for (unsigned I = 0; I != NumBlocks; ++I)
    Layout.emplace(Blocks[I].get(), I);
  std::vector<std::vector<uint32_t>> Succs(NumBlocks);
  for (unsigned I = 0; I != NumBlocks; ++I)
    for (BasicBlock *S : Blocks[I]->successors()) {
      auto It = Layout.find(S);
      if (It != Layout.end())
        Succs[I].push_back(It->second);
    }

  BlockDominance D = computeBlockDominance(Succs);
  const unsigned N = static_cast<unsigned>(D.RPO.size());
  RPO.reserve(N);
  RPONumber.reserve(N);
  for (unsigned I = 0; I != N; ++I) {
    RPO.push_back(Blocks[D.RPO[I]].get());
    RPONumber.emplace(RPO.back(), I);
  }
  IDom = std::move(D.IDom);

  // Children lists, and preorder intervals for O(1) dominance queries. A
  // block's immediate dominator precedes it in RPO, so one backward sweep
  // sizes every subtree and one forward sweep places each child's interval
  // after its earlier siblings'.
  Children.resize(N);
  for (unsigned I = 1; I != N; ++I)
    Children[IDom[I]].push_back(RPO[I]);
  Size.assign(N, 1);
  for (unsigned I = N - 1; I != 0; --I)
    Size[IDom[I]] += Size[I];
  In.assign(N, 0);
  std::vector<unsigned> NextSlot(N, 1);
  for (unsigned I = 1; I != N; ++I) {
    In[I] = NextSlot[IDom[I]];
    NextSlot[IDom[I]] += Size[I];
    NextSlot[I] = In[I] + 1;
  }
}

BasicBlock *DominatorTree::getIDom(const BasicBlock *BB) const {
  unsigned I = rpoNumber(BB);
  return I == NotReachable || I == 0 ? nullptr : RPO[IDom[I]];
}

bool DominatorTree::dominates(const BasicBlock *A,
                              const BasicBlock *B) const {
  unsigned IA = rpoNumber(A), IB = rpoNumber(B);
  if (IA == NotReachable || IB == NotReachable)
    return false;
  return In[IA] <= In[IB] && In[IB] < In[IA] + Size[IA];
}

const std::vector<BasicBlock *> &
DominatorTree::getChildren(const BasicBlock *BB) const {
  unsigned I = rpoNumber(BB);
  return I == NotReachable ? Empty : Children[I];
}

std::vector<BasicBlock *>
DominatorTree::getSubtree(const BasicBlock *BB) const {
  std::vector<BasicBlock *> Out;
  if (!isReachable(BB))
    return Out;
  std::vector<const BasicBlock *> Work{BB};
  while (!Work.empty()) {
    const BasicBlock *Cur = Work.back();
    Work.pop_back();
    Out.push_back(const_cast<BasicBlock *>(Cur));
    for (BasicBlock *C : getChildren(Cur))
      Work.push_back(C);
  }
  return Out;
}
