//===- obfuscation/Fission.cpp - The fission primitive -------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "obfuscation/Fission.h"

#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace khaos;

namespace {

/// Moves allocas that are used exclusively inside the region into the
/// region head (the paper's data-flow reduction / lazy allocation).
///
/// Sinking is only sound when the region is entered at most once per
/// invocation of F: once extracted, the region head is a fresh call frame,
/// so a sunk alloca is re-created (and re-zeroed) on every entry. If the
/// head sits in a loop whose body is not fully inside the region, the
/// caller re-enters the extracted function each iteration and the alloca's
/// contents must persist across those entries — found by the differential
/// fuzzer as a checksum divergence; such allocas stay in the caller and
/// are passed by pointer like any other input.
unsigned sinkRegionLocalAllocas(Function &F,
                                const std::set<BasicBlock *> &InRegion,
                                BasicBlock *Head) {
  DominatorTree DT(F);
  LoopInfo LI(DT);
  for (const Loop *L = LI.getLoopFor(Head); L; L = L->Parent)
    for (const BasicBlock *BB : L->Blocks)
      if (!InRegion.count(const_cast<BasicBlock *>(BB)))
        return 0;

  unsigned Sunk = 0;
  for (const auto &BB : F.blocks()) {
    if (InRegion.count(BB.get()))
      continue;
    for (size_t Idx = BB->size(); Idx-- > 0;) {
      auto *AI = dyn_cast<AllocaInst>(BB->getInst(Idx));
      if (!AI || !AI->hasUses())
        continue;
      bool AllInside = true;
      for (const Instruction *U : AI->users())
        if (!InRegion.count(U->getParent())) {
          AllInside = false;
          break;
        }
      if (!AllInside)
        continue;
      std::unique_ptr<Instruction> Owned = BB->take(AI);
      AI->setParent(Head);
      Head->insertAt(0, Owned.release());
      ++Sunk;
    }
  }
  return Sunk;
}

} // namespace

Function *khaos::extractRegion(Module &M, Function &F, const Region &R,
                               const std::string &SepName,
                               FissionStats &Stats) {
  Context &Ctx = M.getContext();
  std::set<BasicBlock *> InRegion(R.Blocks.begin(), R.Blocks.end());

  Stats.LazyAllocas += sinkRegionLocalAllocas(F, InRegion, R.Head);

  // --- Inputs: every non-constant value defined outside, used inside. ---
  std::vector<Value *> Inputs;
  std::set<Value *> InputSet;
  for (BasicBlock *BB : R.Blocks) {
    for (const auto &I : BB->insts()) {
      for (Value *Op : I->operands()) {
        bool External = false;
        if (isa<Argument>(Op)) {
          External = true;
        } else if (auto *OI = dyn_cast<Instruction>(Op)) {
          External = !InRegion.count(OI->getParent());
        }
        if (External && InputSet.insert(Op).second)
          Inputs.push_back(Op);
      }
    }
  }

  // --- Exits: outside successors, plus returns inside the region. -------
  std::vector<BasicBlock *> Exits;
  std::set<BasicBlock *> ExitSet;
  std::vector<ReturnInst *> InnerRets;
  for (BasicBlock *BB : R.Blocks) {
    Instruction *T = BB->getTerminator();
    assert(T && "region block without terminator");
    if (auto *RI = dyn_cast<ReturnInst>(T))
      InnerRets.push_back(RI);
    for (BasicBlock *S : T->successors())
      if (!InRegion.count(S) && ExitSet.insert(S).second)
        Exits.push_back(S);
  }
  bool HasInnerRet = !InnerRets.empty();
  bool RetHasValue = HasInnerRet && !F.getReturnType()->isVoid();
  int64_t RetExitCode = static_cast<int64_t>(Exits.size());

  // --- Create the sepFunc. ----------------------------------------------
  std::vector<Type *> ParamTys;
  for (Value *V : Inputs)
    ParamTys.push_back(V->getType());
  if (RetHasValue)
    ParamTys.push_back(Ctx.getPointerType(F.getReturnType()));
  FunctionType *SepTy =
      Ctx.getFunctionType(Ctx.getInt32Type(), std::move(ParamTys));
  Function *Sep = M.createFunction(SepName, SepTy);
  Sep->setOrigins(F.getOrigins());
  Sep->setNoInline(true); // The paper's extractor marks sepFuncs noinline.

  // --- Move the blocks (head first: it becomes the sepFunc entry). ------
  Sep->adoptBlock(F.takeBlock(R.Head));
  for (BasicBlock *BB : R.Blocks)
    if (BB != R.Head)
      Sep->adoptBlock(F.takeBlock(BB));

  Stats.SepBlocks += R.Blocks.size();
  for (BasicBlock *BB : R.Blocks)
    Stats.MovedInstructions += BB->size();

  // --- Rewire inputs to parameters. --------------------------------------
  for (size_t I = 0; I != Inputs.size(); ++I) {
    Value *V = Inputs[I];
    Argument *A = Sep->getArg(I);
    A->setName(V->getName().empty() ? formatStr("in%zu", I) : V->getName());
    std::vector<Instruction *> Users(V->users());
    for (Instruction *U : Users) {
      if (!InRegion.count(U->getParent()))
        continue;
      for (unsigned OpIdx = 0, E = U->getNumOperands(); OpIdx != E; ++OpIdx)
        if (U->getOperand(OpIdx) == V)
          U->setOperand(OpIdx, A);
    }
  }
  Argument *RetOutArg = RetHasValue ? Sep->getArg(Inputs.size()) : nullptr;
  if (RetOutArg)
    RetOutArg->setName("ret.out");

  // --- Encode exits in the return value (paper §3.2.3). ------------------
  std::vector<BasicBlock *> ExitStubs;
  for (size_t E = 0; E != Exits.size(); ++E) {
    BasicBlock *Stub = Sep->addBlock(formatStr("exit.%zu", E));
    Stub->push(new ReturnInst(M.getInt32(static_cast<int64_t>(E)),
                              Ctx.getVoidType()));
    ExitStubs.push_back(Stub);
  }
  for (BasicBlock *BB : R.Blocks) {
    Instruction *T = BB->getTerminator();
    for (size_t E = 0; E != Exits.size(); ++E)
      T->replaceSuccessor(Exits[E], ExitStubs[E]);
  }

  // Inner returns become "exit code RetExitCode" (+ store of the value).
  for (ReturnInst *RI : InnerRets) {
    BasicBlock *BB = RI->getParent();
    if (RetOutArg && RI->hasReturnValue())
      BB->insertBefore(RI, new StoreInst(RI->getReturnValue(), RetOutArg));
    BB->insertAt(BB->size(),
                 new ReturnInst(M.getInt32(RetExitCode), Ctx.getVoidType()));
    BB->erase(RI);
  }

  // --- Build the call/dispatch blocks in the remFunc (paper Fig. 1 a-d). -
  BasicBlock *CallBB = F.addBlock(SepName + ".call");
  IRBuilder B(M);

  AllocaInst *RetSlot = nullptr;
  if (RetHasValue) {
    RetSlot = new AllocaInst(F.getReturnType(), SepName + ".retslot");
    F.getEntryBlock()->insertAt(0, RetSlot);
  }

  B.setInsertPoint(CallBB);
  std::vector<Value *> CallArgs = Inputs;
  if (RetSlot)
    CallArgs.push_back(RetSlot);
  CallInst *Call = B.createCall(Sep, CallArgs, SepName + ".code");

  // Return-from-region path.
  BasicBlock *RetBB = nullptr;
  if (HasInnerRet) {
    RetBB = F.addBlock(SepName + ".ret");
    IRBuilder RB(M);
    RB.setInsertPoint(RetBB);
    if (RetSlot)
      RB.createRet(RB.createLoad(RetSlot));
    else
      RB.createRetVoid();
  }

  if (Exits.empty() && !HasInnerRet) {
    B.createUnreachable(); // Region never returns (infinite loop).
  } else if (Exits.empty()) {
    B.createBr(RetBB);
  } else if (Exits.size() == 1 && !HasInnerRet) {
    B.createBr(Exits[0]);
  } else {
    SwitchInst *SW = B.createSwitch(Call, HasInnerRet ? RetBB : Exits[0]);
    size_t First = HasInnerRet ? 0 : 1; // Default covers exit 0 otherwise.
    for (size_t E = First; E < Exits.size(); ++E)
      SW->addCase(static_cast<int64_t>(E), Exits[E]);
  }

  // --- Redirect all former edges into the region head. -------------------
  for (const auto &BB : F.blocks()) {
    if (Instruction *T = BB->getTerminator())
      T->replaceSuccessor(R.Head, CallBB);
  }

  ++Stats.SepFuncs;
  return Sep;
}

std::vector<std::string> khaos::runFission(Module &M, FissionStats &Stats,
                                           const FissionOptions &Opts) {
  std::vector<std::string> SepNames;
  // Snapshot: newly created sepFuncs must not be re-fissioned.
  std::vector<Function *> Originals;
  for (const auto &F : M.functions())
    if (!F->isDeclaration() && !F->isIntrinsic() && !F->isNoObfuscate())
      Originals.push_back(F.get());

  for (Function *F : Originals) {
    ++Stats.OriFuncs;
    Stats.OriInstructions += F->instructionCount();
    std::vector<Region> Regions = identifyRegions(*F, Opts.Regions);
    if (Regions.empty())
      continue;
    ++Stats.ProcessedFuncs;
    unsigned Seq = 0;
    for (const Region &R : Regions) {
      std::string Name =
          M.uniqueName(F->getName() + ".part" + std::to_string(Seq));
      ++Seq;
      extractRegion(M, *F, R, Name, Stats);
      SepNames.push_back(Name);
    }
  }
  return SepNames;
}
