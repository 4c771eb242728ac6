//===- analysis/CallGraph.cpp - Module call graph ------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"

#include "ir/Module.h"

using namespace khaos;

const std::set<Function *> CallGraph::EmptySet;

CallGraph::CallGraph(const Module &M) {
  for (const auto &F : M.functions()) {
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->insts()) {
        auto *CI = dyn_cast<CallInst>(I.get());
        if (!CI)
          continue;
        if (Function *Callee = CI->getCalledFunction())
          Callees[F.get()].insert(Callee);
      }
    }
  }
}

const std::set<Function *> &CallGraph::getCallees(const Function *F) const {
  auto It = Callees.find(F);
  return It == Callees.end() ? EmptySet : It->second;
}

bool CallGraph::haveDirectCallRelation(const Function *A,
                                       const Function *B) const {
  return getCallees(A).count(const_cast<Function *>(B)) ||
         getCallees(B).count(const_cast<Function *>(A));
}
