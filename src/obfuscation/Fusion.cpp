//===- obfuscation/Fusion.cpp - The fusion primitive -----------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "obfuscation/Fusion.h"

#include "analysis/CallGraph.h"
#include "analysis/EscapeAnalysis.h"
#include "analysis/BlockFrequency.h"
#include "analysis/DominatorTree.h"
#include "analysis/InnocuousAnalysis.h"
#include "analysis/LoopInfo.h"
#include "ir/IRBuilder.h"
#include "transform/DemoteValues.h"
#include "ir/Module.h"
#include "support/RNG.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace khaos;

namespace {

/// Fusion tag layout in the low nibble of a function pointer (16-byte
/// alignment guarantees the low 4 bits are free; bit 0 is left for the
/// platform, the paper's appendix A.1 uses bits 1-2).
constexpr unsigned TagIsFusedBit = 1u << 1; // bit 1
constexpr unsigned TagCtrlBit = 1u << 2;    // bit 2
constexpr int64_t TagMask = TagIsFusedBit | TagCtrlBit;

/// Deep fusion merges at most this many innocuous block pairs per fusFunc.
constexpr unsigned MaxDeepMergesPerPair = 2;

/// Per-side description of how an original function maps into a fusFunc.
struct SideMap {
  Function *Ori = nullptr;
  int64_t Ctrl = 0;
  /// Original parameter index -> fusFunc parameter index (0 is ctrl).
  std::vector<unsigned> ParamSlot;
};

/// True when \p F's address is stored in some global initializer (the
/// statically initialized pointers of the paper's appendix A.1).
bool referencedFromGlobalInit(const Function &F, const Module &M) {
  for (const auto &G : M.globals())
    for (const Constant *C : G->getInitializer())
      if (const auto *TF = dyn_cast<ConstantTaggedFunc>(C))
        if (TF->getFunction() == &F)
          return true;
  return false;
}

/// Should the pairing require exact positional types for this function?
/// (Indirect call sites reconstruct the fused ABI from the static callee
/// type alone, so no conversions may be needed.)
bool requiresExactABI(const Function &F, const EscapeAnalysis &EA,
                      const Module &M) {
  if (EA.addressMayEscapeModule(&F))
    return false; // Escaping functions go through trampolines instead.
  return F.hasAddressTaken() || referencedFromGlobalInit(F, M);
}

/// Checks the paper's §3.3.1 constraints plus the tagged-pointer ABI
/// constraint for address-taken functions.
bool canPair(const Function &F, const Function &G, const CallGraph &CG,
             const EscapeAnalysis &EA, const Module &M) {
  if (&F == &G)
    return false;
  if (F.isVarArg() || G.isVarArg())
    return false;
  if (F.isDeclaration() || G.isDeclaration() || F.isIntrinsic() ||
      G.isIntrinsic())
    return false;
  // A direct call relation would turn into recursion after aggregation.
  if (CG.haveDirectCallRelation(&F, &G))
    return false;
  // Return compatibility: void absorbs, otherwise lossless compression.
  Type *FR = F.getReturnType(), *GR = G.getReturnType();
  if (!FR->isVoid() && !GR->isVoid() && !FR->isCompatibleWith(GR))
    return false;

  for (const Function *Taken : {&F, &G}) {
    if (!requiresExactABI(*Taken, EA, M))
      continue;
    const Function *Other = Taken == &F ? &G : &F;
    FunctionType *TT = Taken->getFunctionType();
    FunctionType *OT = Other->getFunctionType();
    unsigned Shared = std::min(TT->getNumParams(), OT->getNumParams());
    for (unsigned I = 0; I != Shared; ++I)
      if (TT->getParamType(I) != OT->getParamType(I))
        return false;
    Type *TR = TT->getReturnType();
    if (!TR->isVoid()) {
      Type *OR = OT->getReturnType();
      if (!OR->isVoid() && OR != TR)
        return false;
    }
  }
  return true;
}

/// Builds the fused parameter list: slot 0 is ctrl, shared positions are
/// compressed to the wider compatible type, leftovers are appended
/// (paper §3.3.2 and Fig. 3c).
std::vector<Type *> buildFusedParams(Module &M, Function *F, Function *G,
                                     SideMap &FM, SideMap &GM,
                                     unsigned &Compressed) {
  FunctionType *FT = F->getFunctionType();
  FunctionType *GT = G->getFunctionType();
  std::vector<Type *> Params;
  Params.push_back(M.getContext().getInt32Type()); // ctrl

  unsigned NF = FT->getNumParams(), NG = GT->getNumParams();
  unsigned Shared = std::min(NF, NG);
  FM.ParamSlot.resize(NF);
  GM.ParamSlot.resize(NG);

  for (unsigned I = 0; I != Shared; ++I) {
    Type *A = FT->getParamType(I), *B = GT->getParamType(I);
    if (A->isCompatibleWith(B)) {
      Params.push_back(Type::getCompressedType(A, B));
      FM.ParamSlot[I] = Params.size() - 1;
      GM.ParamSlot[I] = Params.size() - 1;
      ++Compressed;
    } else {
      Params.push_back(A);
      FM.ParamSlot[I] = Params.size() - 1;
      Params.push_back(B);
      GM.ParamSlot[I] = Params.size() - 1;
    }
  }
  for (unsigned I = Shared; I != NF; ++I) {
    Params.push_back(FT->getParamType(I));
    FM.ParamSlot[I] = Params.size() - 1;
  }
  for (unsigned I = Shared; I != NG; ++I) {
    Params.push_back(GT->getParamType(I));
    GM.ParamSlot[I] = Params.size() - 1;
  }
  return Params;
}

/// Fused return type: void absorbs; otherwise the compressed type
/// (paper §3.3.2, "return value determination").
Type *buildFusedReturn(Function *F, Function *G) {
  Type *FR = F->getReturnType(), *GR = G->getReturnType();
  if (FR->isVoid())
    return GR;
  if (GR->isVoid())
    return FR;
  return Type::getCompressedType(FR, GR);
}

/// Builds the fused argument vector for calling \p Fus on behalf of one
/// side: ctrl constant, this side's converted arguments in their slots,
/// zeros elsewhere. Conversions are emitted through \p B.
std::vector<Value *> buildSideArgs(Module &M, IRBuilder &B, Function *Fus,
                                   const SideMap &Side,
                                   const std::vector<Value *> &OwnArgs) {
  FunctionType *FusTy = Fus->getFunctionType();
  std::vector<Value *> Args(FusTy->getNumParams(), nullptr);
  Args[0] = M.getInt32(Side.Ctrl);
  for (unsigned I = 0, E = OwnArgs.size(); I != E; ++I) {
    unsigned Slot = Side.ParamSlot[I];
    Value *A = OwnArgs[I];
    if (A->getType() != FusTy->getParamType(Slot))
      A = B.createConvert(A, FusTy->getParamType(Slot));
    Args[Slot] = A;
  }
  for (unsigned I = 0, E = FusTy->getNumParams(); I != E; ++I)
    if (!Args[I])
      Args[I] = M.getZeroValue(FusTy->getParamType(I));
  return Args;
}

/// Builds the fusFunc body and rewrites the world. One instance per pair.
class PairFuser {
public:
  PairFuser(Module &M, Function *F, Function *G, FusionStats &Stats,
            const FusionOptions &Opts)
      : M(M), Ctx(M.getContext()), Stats(Stats), Opts(Opts) {
    Sides[0].Ori = F;
    Sides[0].Ctrl = 1;
    Sides[1].Ori = G;
    Sides[1].Ctrl = 0;
  }

  Function *run();

private:
  void moveSideBlocks(unsigned SideIdx, BasicBlock *&SideEntry);
  void hoistSideAllocas(BasicBlock *SideEntry);
  void rewireSideArguments(SideMap &Side);
  void rewriteSideReturns(unsigned SideIdx);
  void rewriteDirectCalls(SideMap &Side);
  void handleAddressUses(SideMap &Side, const EscapeAnalysis &EA);
  Function *buildTrampoline(SideMap &Side);
  void runDeepFusion();
  bool blockMergeable(BasicBlock *BB);
  bool operandAvailableEverywhere(const Value *V, const BasicBlock *Home);

  Module &M;
  Context &Ctx;
  FusionStats &Stats;
  const FusionOptions &Opts;
  SideMap Sides[2];
  Function *Fus = nullptr;
  BasicBlock *FusEntry = nullptr;
  Instruction *CtrlIsOne = nullptr; ///< i1, reused by deep fusion.
  /// Blocks of each side in original function order. Deliberately a
  /// vector, not a pointer-keyed set: iteration feeds value numbering and
  /// deep-merge candidate selection, which must not depend on heap
  /// addresses (runs must be reproducible at any thread count).
  std::vector<BasicBlock *> SideBlocks[2];
};

} // namespace

void PairFuser::moveSideBlocks(unsigned SideIdx, BasicBlock *&SideEntry) {
  Function *Ori = Sides[SideIdx].Ori;
  SideEntry = Ori->getEntryBlock();
  std::vector<BasicBlock *> Order;
  for (const auto &BB : Ori->blocks())
    Order.push_back(BB.get());
  for (BasicBlock *BB : Order) {
    Fus->adoptBlock(Ori->takeBlock(BB));
    SideBlocks[SideIdx].push_back(BB);
  }
}

void PairFuser::hoistSideAllocas(BasicBlock *SideEntry) {
  // Hoisting side-entry allocas into the fused entry makes both frames
  // exist on either path — the precondition for deep fusion's speculative
  // execution of innocuous blocks.
  std::vector<Instruction *> Allocas;
  for (const auto &I : SideEntry->insts())
    if (isa<AllocaInst>(I.get()))
      Allocas.push_back(I.get());
  for (Instruction *AI : Allocas) {
    std::unique_ptr<Instruction> Owned = SideEntry->take(AI);
    AI->setParent(FusEntry);
    FusEntry->insertAt(FusEntry->size(), Owned.release());
  }
}

void PairFuser::rewireSideArguments(SideMap &Side) {
  IRBuilder B(M);
  B.setInsertPoint(FusEntry);
  Function *Ori = Side.Ori;
  for (unsigned I = 0, E = Ori->arg_size(); I != E; ++I) {
    Argument *OldArg = Ori->getArg(I);
    if (!OldArg->hasUses())
      continue;
    Argument *NewArg = Fus->getArg(Side.ParamSlot[I]);
    Value *Replacement = NewArg;
    if (NewArg->getType() != OldArg->getType())
      Replacement = B.createConvert(NewArg, OldArg->getType());
    OldArg->replaceAllUsesWith(Replacement);
  }
}

void PairFuser::rewriteSideReturns(unsigned SideIdx) {
  Type *FusRet = Fus->getReturnType();
  if (FusRet->isVoid())
    return; // Both sides were void already.
  for (BasicBlock *BB : SideBlocks[SideIdx]) {
    auto *RI = dyn_cast_or_null<ReturnInst>(BB->getTerminator());
    if (!RI)
      continue;
    Value *NewVal;
    if (RI->hasReturnValue()) {
      if (RI->getReturnValue()->getType() == FusRet)
        continue;
      IRBuilder B(M);
      B.setInsertBefore(RI);
      NewVal = B.createConvert(RI->getReturnValue(), FusRet);
    } else {
      NewVal = M.getZeroValue(FusRet);
    }
    BB->insertAt(BB->size(), new ReturnInst(NewVal, Ctx.getVoidType()));
    BB->erase(RI);
  }
}

void PairFuser::rewriteDirectCalls(SideMap &Side) {
  Function *Ori = Side.Ori;
  Type *OriRet = Ori->getReturnType();
  std::vector<Instruction *> Users(Ori->users());
  for (Instruction *U : Users) {
    auto *CI = dyn_cast<CallInst>(U);
    if (!CI || CI->getCallee() != Ori)
      continue;
    Function *Caller = CI->getFunction();
    IRBuilder B(M);
    B.setInsertBefore(CI);
    std::vector<Value *> OwnArgs;
    for (unsigned I = 0, E = CI->getNumArgs(); I != E; ++I)
      OwnArgs.push_back(CI->getArg(I));
    std::vector<Value *> Args = buildSideArgs(M, B, Fus, Side, OwnArgs);

    bool NeedConv =
        !OriRet->isVoid() && OriRet != Fus->getReturnType() && CI->hasUses();

    Value *Result = nullptr;
    if (auto *IV = dyn_cast<InvokeInst>(CI)) {
      BasicBlock *Normal = IV->getNormalDest();
      BasicBlock *ConvBB = nullptr;
      if (NeedConv) {
        // Result conversion must run on the normal path only.
        ConvBB = Caller->addBlockAfter(CI->getParent(), "fus.conv");
      }
      auto *NewIV = new InvokeInst(Fus, Args, ConvBB ? ConvBB : Normal,
                                   IV->getUnwindDest(), CI->getName());
      CI->getParent()->insertBefore(CI, NewIV);
      Result = NewIV;
      if (ConvBB) {
        IRBuilder CB(M);
        CB.setInsertPoint(ConvBB);
        Result = CB.createConvert(NewIV, OriRet);
        CB.createBr(Normal);
      }
    } else {
      auto *NC = new CallInst(Fus, Args, CI->getName());
      CI->getParent()->insertBefore(CI, NC);
      Result = NC;
      if (NeedConv) {
        IRBuilder CB(M);
        CB.setInsertBefore(CI);
        Result = CB.createConvert(NC, OriRet);
      }
    }
    if (CI->hasUses())
      CI->replaceAllUsesWith(Result);
    CI->eraseFromParent();
  }
}

Function *PairFuser::buildTrampoline(SideMap &Side) {
  Function *Ori = Side.Ori;
  std::string OrigName = Ori->getName();
  bool WasExported = Ori->isExported();
  Ori->setName(OrigName + ".pre_fusion");

  Function *Tramp = M.createFunction(OrigName, Ori->getFunctionType());
  Tramp->setExported(WasExported);
  Tramp->setNoObfuscate(true);
  Tramp->setOrigins(Ori->getOrigins());

  IRBuilder B(M);
  BasicBlock *Entry = Tramp->addBlock("entry");
  B.setInsertPoint(Entry);

  std::vector<Value *> OwnArgs;
  for (unsigned I = 0, E = Tramp->arg_size(); I != E; ++I)
    OwnArgs.push_back(Tramp->getArg(I));
  std::vector<Value *> Args = buildSideArgs(M, B, Fus, Side, OwnArgs);

  Value *R = B.createCall(Fus, Args);
  Type *OriRet = Tramp->getReturnType();
  if (OriRet->isVoid()) {
    B.createRetVoid();
  } else {
    if (R->getType() != OriRet)
      R = B.createConvert(R, OriRet);
    B.createRet(R);
  }
  ++Stats.Trampolines;
  return Tramp;
}

void PairFuser::handleAddressUses(SideMap &Side, const EscapeAnalysis &EA) {
  Function *Ori = Side.Ori;
  unsigned Tag = TagIsFusedBit | (Side.Ctrl ? TagCtrlBit : 0);

  // Global initializers hold tagged constants (tag 0 pre-obfuscation);
  // retarget them. This is the relocation-addend trick of appendix A.1 —
  // the BinaryImage later emits these as relocations whose addend carries
  // the tag.
  bool UsedInGlobals = false;
  for (const auto &G : M.globals()) {
    std::vector<Constant *> Init = G->getInitializer();
    bool Changed = false;
    for (Constant *&C : Init) {
      auto *TF = dyn_cast<ConstantTaggedFunc>(C);
      if (TF && TF->getFunction() == Ori) {
        C = M.getTaggedFunc(TF->getType(), Fus, Tag);
        Changed = true;
        UsedInGlobals = true;
      }
    }
    if (Changed)
      G->setInitializer(std::move(Init));
  }
  (void)UsedInGlobals;

  if (EA.addressMayEscapeModule(Ori) || Ori->isExported()) {
    // Exported symbols must survive with the original ABI even when no
    // internal use remains: external callers (the VM's entry point, other
    // modules) resolve them by name.
    Function *Tramp = buildTrampoline(Side);
    if (Ori->hasUses())
      Ori->replaceAllUsesWith(Tramp);
    return;
  }

  if (!Ori->hasUses())
    return;

  // Intra-module address-taking: the paper's tagged pointer mechanism.
  ConstantTaggedFunc *TF = M.getTaggedFunc(Ori->getType(), Fus, Tag);
  Ori->replaceAllUsesWith(TF);
}

//===----------------------------------------------------------------------===//
// Deep fusion (paper §3.3.4)
//===----------------------------------------------------------------------===//

bool PairFuser::operandAvailableEverywhere(const Value *V,
                                           const BasicBlock *Home) {
  if (isa<Constant>(V) || isa<GlobalVariable>(V) || isa<Function>(V) ||
      isa<Argument>(V))
    return true;
  const auto *I = dyn_cast<Instruction>(V);
  if (!I)
    return false;
  // Values defined in the fused entry (hoisted allocas, argument
  // conversions, the ctrl compare) dominate both paths; values defined in
  // the candidate block itself move along with it.
  return I->getParent() == FusEntry || I->getParent() == Home;
}

/// A merged block executes speculatively on the other function's path, so
/// every memory access must stay in bounds even with garbage inputs:
/// plain allocas/globals, or constant-index GEPs of them.
static bool memoryAccessSafeEverywhere(const Value *Ptr) {
  while (true) {
    if (isa<AllocaInst>(Ptr) || isa<GlobalVariable>(Ptr))
      return true;
    if (const auto *GEP = dyn_cast<GEPInst>(Ptr)) {
      if (!isa<ConstantInt>(GEP->getIndex()))
        return false;
      Ptr = GEP->getPointer();
      continue;
    }
    return false;
  }
}

bool PairFuser::blockMergeable(BasicBlock *BB) {
  if (BB == FusEntry)
    return false;
  auto *BR = dyn_cast_or_null<BranchInst>(BB->getTerminator());
  if (!BR || BR->isConditional())
    return false;
  if (BR->getSuccessor(0) == BB)
    return false;
  if (!isInnocuousBlock(*BB))
    return false;
  for (const auto &I : BB->insts()) {
    if (isa<AllocaInst>(I.get()))
      return false;
    if (I->isTerminator())
      continue;
    // Speculative execution safety: no faulting loads/stores, no division
    // by a value that may be zero on the other path.
    if (const auto *LI = dyn_cast<LoadInst>(I.get())) {
      if (!memoryAccessSafeEverywhere(LI->getPointer()))
        return false;
    }
    if (const auto *SI = dyn_cast<StoreInst>(I.get())) {
      if (!memoryAccessSafeEverywhere(SI->getPointer()))
        return false;
    }
    for (const Value *Op : I->operands())
      if (!operandAvailableEverywhere(Op, BB))
        return false;
  }
  // The block's values must only be used inside itself: the merged block
  // is reached from both paths and defs would not dominate former users
  // elsewhere. Stores to hoisted allocas still communicate results.
  for (const auto &I : BB->insts())
    for (const Instruction *U : I->users())
      if (U->getParent() != BB)
        return false;
  return true;
}

void PairFuser::runDeepFusion() {
  // Deep fusion creates static cross-side paths through the merged block,
  // which destroys dominance for some def-use pairs. Those are repaired
  // *after* the merge with targeted reg2mem (demoting everything up front
  // costs double-digit overhead). Invoke results cannot always be
  // demoted; bail out when one with a shared normal destination exists.
  for (const auto &BB : Fus->blocks())
    for (const auto &I : BB->insts())
      if (auto *IV = dyn_cast<InvokeInst>(I.get()))
        if (IV->hasUses() &&
            IV->getNormalDest()->predecessors().size() != 1)
          return;

  std::vector<BasicBlock *> FCands, GCands;
  for (BasicBlock *BB : SideBlocks[0])
    if (blockMergeable(BB))
      FCands.push_back(BB);
  for (BasicBlock *BB : SideBlocks[1])
    if (blockMergeable(BB))
      GCands.push_back(BB);

  // Merged blocks execute on *both* paths, so merging a hot block doubles
  // hot work. Prefer the coldest candidates (this is what keeps the
  // paper's fusion overhead in the single digits).
  {
    DominatorTree DT(*Fus);
    LoopInfo LI(DT);
    BlockFrequency BF(DT, LI);
    auto Colder = [&](BasicBlock *A, BasicBlock *B) {
      return BF.getFrequency(A) < BF.getFrequency(B);
    };
    // Stable: frequency ties keep original block order, independent of
    // the sort implementation's internal pivoting.
    std::stable_sort(FCands.begin(), FCands.end(), Colder);
    std::stable_sort(GCands.begin(), GCands.end(), Colder);
    // Loop-resident blocks are never merged: the merged block would run
    // on both paths on every iteration (the paper's Fig. 5 example merges
    // straight-line prologue code, not loop bodies).
    auto DropLoops = [&](std::vector<BasicBlock *> &C) {
      C.erase(std::remove_if(C.begin(), C.end(),
                             [&](BasicBlock *BB) {
                               return LI.getLoopDepth(BB) > 0;
                             }),
              C.end());
    };
    DropLoops(FCands);
    DropLoops(GCands);
  }

  unsigned Merges =
      std::min({(unsigned)FCands.size(), (unsigned)GCands.size(),
                MaxDeepMergesPerPair});
  for (unsigned K = 0; K != Merges; ++K) {
    BasicBlock *A = FCands[K];
    BasicBlock *B = GCands[K];
    BasicBlock *ASucc = A->getTerminator()->getSuccessor(0);
    BasicBlock *BSucc = B->getTerminator()->getSuccessor(0);

    BasicBlock *Merged = Fus->addBlock(formatStr("deep.%u", K));
    // Move A's then B's straight-line code; both run on either path
    // (innocuous: no global state is touched).
    auto MoveBody = [&](BasicBlock *Src) {
      std::vector<Instruction *> Body;
      for (const auto &I : Src->insts())
        if (!I->isTerminator())
          Body.push_back(I.get());
      for (Instruction *I : Body) {
        std::unique_ptr<Instruction> Owned = Src->take(I);
        I->setParent(Merged);
        Merged->insertAt(Merged->size(), Owned.release());
      }
    };
    MoveBody(A);
    MoveBody(B);
    Merged->push(new BranchInst(CtrlIsOne, ASucc, BSucc));

    // Redirect predecessors (including the entry dispatch) into Merged.
    for (const auto &BB2 : Fus->blocks()) {
      if (BB2.get() == Merged)
        continue;
      if (Instruction *T = BB2->getTerminator()) {
        T->replaceSuccessor(A, Merged);
        T->replaceSuccessor(B, Merged);
      }
    }
    // A and B are empty shells now (terminator only).
    Fus->eraseBlock(A);
    Fus->eraseBlock(B);
    SideBlocks[0].erase(
        std::find(SideBlocks[0].begin(), SideBlocks[0].end(), A));
    SideBlocks[1].erase(
        std::find(SideBlocks[1].begin(), SideBlocks[1].end(), B));
    Stats.DeepMergedBlocks += 2;
  }

  if (!Merges)
    return;
  // Repair the def-use pairs whose dominance the merges broke.
  DominatorTree DT(*Fus);
  std::vector<Instruction *> Broken;
  for (const auto &BB : Fus->blocks()) {
    for (const auto &I : BB->insts()) {
      if (!I->getType() || I->getType()->isVoid() || !I->hasUses())
        continue;
      for (const Instruction *U : I->users())
        if (U->getParent() != BB.get() &&
            !DT.dominates(BB.get(), U->getParent())) {
          Broken.push_back(I.get());
          break;
        }
    }
  }
  for (Instruction *I : Broken)
    demoteInstruction(M, *Fus, I);
}

//===----------------------------------------------------------------------===//
// Pair driver
//===----------------------------------------------------------------------===//

Function *PairFuser::run() {
  Function *F = Sides[0].Ori, *G = Sides[1].Ori;

  unsigned Compressed = 0;
  std::vector<Type *> Params =
      buildFusedParams(M, F, G, Sides[0], Sides[1], Compressed);
  Stats.CompressedParams += Compressed;
  FunctionType *FusTy =
      Ctx.getFunctionType(buildFusedReturn(F, G), std::move(Params));

  Fus = M.createFunction(M.uniqueName("khaos_fused"), FusTy);
  Fus->setNoInline(true); // Splitting the pair back via inlining is easy.
  Fus->getArg(0)->setName("ctrl");
  std::vector<std::string> Origins = F->getOrigins();
  for (const std::string &O : G->getOrigins())
    Origins.push_back(O);
  Fus->setOrigins(std::move(Origins));

  // The fused entry is created first so it stays the entry block; side
  // blocks are appended after it.
  FusEntry = Fus->addBlock("entry");

  BasicBlock *FEntry = nullptr, *GEntry = nullptr;
  moveSideBlocks(0, FEntry);
  moveSideBlocks(1, GEntry);

  hoistSideAllocas(FEntry);
  hoistSideAllocas(GEntry);
  rewireSideArguments(Sides[0]);
  rewireSideArguments(Sides[1]);

  IRBuilder B(M);
  B.setInsertPoint(FusEntry);
  CtrlIsOne =
      B.createCmp(CmpPred::EQ, Fus->getArg(0), M.getInt32(1), "is.first");
  B.createCondBr(CtrlIsOne, FEntry, GEntry);

  rewriteSideReturns(0);
  rewriteSideReturns(1);

  rewriteDirectCalls(Sides[0]);
  rewriteDirectCalls(Sides[1]);

  EscapeAnalysis EA(M);
  handleAddressUses(Sides[0], EA);
  handleAddressUses(Sides[1], EA);

  if (Opts.EnableDeepFusion)
    runDeepFusion();

  assert(!F->hasUses() && !G->hasUses() && "stale references to oriFuncs");
  M.eraseFunction(F);
  M.eraseFunction(G);

  Stats.Fused += 2;
  ++Stats.Pairs;
  return Fus;
}

//===----------------------------------------------------------------------===//
// Indirect call rewriting (paper Fig. 4)
//===----------------------------------------------------------------------===//

/// True when any tagged (tag != 0) function constant exists in code or
/// data — only then do indirect call sites need the dispatch.
static bool moduleHasTaggedPointers(const Module &M) {
  for (const auto &G : M.globals())
    for (const Constant *C : G->getInitializer())
      if (const auto *TF = dyn_cast<ConstantTaggedFunc>(C))
        if (TF->getTag() != 0)
          return true;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->insts())
        for (const Value *Op : I->operands())
          if (const auto *TF = dyn_cast<ConstantTaggedFunc>(Op))
            if (TF->getTag() != 0)
              return true;
  return false;
}

/// Rewrites one indirect call site with the tag-check dispatch.
static void rewriteIndirectSite(Module &M, Function *F, CallInst *CI) {
  Context &Ctx = M.getContext();
  BasicBlock *BB = CI->getParent();
  bool IsInvoke = isa<InvokeInst>(CI);
  FunctionType *SiteTy = CI->getCalleeType();
  Type *RetTy = SiteTy->getReturnType();

  // Fused-callee type as seen from this site: (ctrl, original params).
  std::vector<Type *> FusParams;
  FusParams.push_back(Ctx.getInt32Type());
  for (Type *T : SiteTy->getParamTypes())
    FusParams.push_back(T);
  FunctionType *FusSiteTy = Ctx.getFunctionType(RetTy, FusParams);

  // Result slot: the two paths join without phis.
  AllocaInst *Slot = nullptr;
  if (!RetTy->isVoid() && CI->hasUses()) {
    Slot = new AllocaInst(RetTy, "tag.slot");
    F->getEntryBlock()->insertAt(0, Slot);
  }

  BasicBlock *OrigNormal = nullptr, *OrigUnwind = nullptr;
  if (IsInvoke) {
    OrigNormal = cast<InvokeInst>(CI)->getNormalDest();
    OrigUnwind = cast<InvokeInst>(CI)->getUnwindDest();
  }

  // Join block: holds the instructions after the call (plain calls), or
  // forwards to the old normal destination (invokes).
  BasicBlock *Join;
  if (IsInvoke) {
    Join = F->addBlockAfter(BB, "tag.join");
  } else {
    // A plain call is never a terminator, so something follows it.
    Join = BB->splitBefore(BB->getInst(BB->indexOf(CI) + 1), "tag.join");
  }

  Value *Callee = CI->getCallee();
  std::vector<Value *> OrigArgs;
  for (unsigned A = 0, E = CI->getNumArgs(); A != E; ++A)
    OrigArgs.push_back(CI->getArg(A));

  // Remove the call (and the split's trailing branch) from BB, then build
  // the tag check in its place.
  std::unique_ptr<Instruction> OwnedCall = BB->take(CI);
  if (Instruction *Trailing = BB->getTerminator())
    BB->erase(Trailing);

  BasicBlock *FusedBB = F->addBlockAfter(BB, "tag.fused");
  BasicBlock *PlainBB = F->addBlockAfter(FusedBB, "tag.plain");

  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *PtrInt =
      B.createCast(CastKind::PtrToInt, Callee, Ctx.getInt64Type());
  Value *TagBits = B.createBinOp(BinOp::And, PtrInt, M.getInt64(TagMask));
  Value *IsFused =
      B.createCmp(CmpPred::NE, TagBits, M.getInt64(0), "is.fused");
  B.createCondBr(IsFused, FusedBB, PlainBB);

  // Fused path: extract ctrl (bit 2), clear the tag, call the fused ABI.
  B.setInsertPoint(FusedBB);
  Value *CtrlShift = B.createBinOp(BinOp::LShr, PtrInt, M.getInt64(2));
  Value *Ctrl64 = B.createBinOp(BinOp::And, CtrlShift, M.getInt64(1));
  Value *Ctrl =
      B.createCast(CastKind::Trunc, Ctrl64, Ctx.getInt32Type(), "ctrl");
  Value *Clean = B.createBinOp(BinOp::And, PtrInt, M.getInt64(~15ll));
  Value *FusPtr = B.createCast(CastKind::IntToPtr, Clean,
                               Ctx.getPointerType(FusSiteTy));
  std::vector<Value *> FusArgs;
  FusArgs.push_back(Ctrl);
  for (Value *A : OrigArgs)
    FusArgs.push_back(A);

  auto EmitPath = [&](BasicBlock *PathBB, Value *PathCallee,
                      std::vector<Value *> Args) {
    IRBuilder PB(M);
    PB.setInsertPoint(PathBB);
    std::string Name = CI->getName() + ".tagdisp";
    if (!IsInvoke) {
      Value *R = PB.createCall(PathCallee, std::move(Args), Name);
      if (Slot)
        PB.createStore(R, Slot);
      PB.createBr(Join);
      return;
    }
    BasicBlock *Norm = F->addBlockAfter(PathBB, "tag.norm");
    Value *R =
        PB.createInvoke(PathCallee, std::move(Args), Norm, OrigUnwind, Name);
    IRBuilder NB(M);
    NB.setInsertPoint(Norm);
    if (Slot)
      NB.createStore(R, Slot);
    NB.createBr(Join);
  };
  EmitPath(FusedBB, FusPtr, FusArgs);
  EmitPath(PlainBB, Callee, OrigArgs);

  if (Slot) {
    auto *Res = new LoadInst(Slot, CI->getName() + ".res");
    Join->insertAt(0, Res);
    CI->replaceAllUsesWith(Res);
  }
  if (IsInvoke)
    Join->insertAt(Join->size(), new BranchInst(OrigNormal));
  OwnedCall.reset(); // Destroys the original call.
}

/// Rewrites every indirect call site; returns how many were rewritten.
static unsigned rewriteIndirectCallSites(Module &M) {
  if (!moduleHasTaggedPointers(M))
    return 0;
  unsigned Rewritten = 0;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    std::vector<CallInst *> Sites;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->insts())
        if (auto *CI = dyn_cast<CallInst>(I.get()))
          if (CI->isIndirect() && !CI->getName().ends_with(".tagdisp"))
            Sites.push_back(CI);
    for (CallInst *CI : Sites) {
      rewriteIndirectSite(M, F.get(), CI);
      ++Rewritten;
    }
  }
  return Rewritten;
}

//===----------------------------------------------------------------------===//
// Module-level driver
//===----------------------------------------------------------------------===//

Function *khaos::fusePair(Module &M, Function *F, Function *G,
                          FusionStats &Stats, const FusionOptions &Opts) {
  CallGraph CG(M);
  EscapeAnalysis EA(M);
  if (!canPair(*F, *G, CG, EA, M))
    return nullptr;
  PairFuser Fuser(M, F, G, Stats, Opts);
  Function *Fus = Fuser.run();
  Stats.TaggedPointerSites += rewriteIndirectCallSites(M);
  return Fus;
}

void khaos::runFusion(Module &M, FusionStats &Stats,
                      const FusionOptions &Opts) {
  CallGraph CG(M);
  EscapeAnalysis EA(M);

  std::set<std::string> Restrict(Opts.RestrictTo.begin(),
                                 Opts.RestrictTo.end());
  std::vector<Function *> Cands;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration() || F->isIntrinsic() || F->isNoObfuscate() ||
        F->isVarArg())
      continue;
    if (!Restrict.empty() && !Restrict.count(F->getName()))
      continue;
    Cands.push_back(F.get());
  }
  Stats.Candidates += Cands.size();

  RNG Rng(Opts.Seed);
  Rng.shuffle(Cands);

  // Greedy random pairing, preferring register-only fused signatures
  // (paper: functions with < 6 total parameters are preferred).
  std::set<Function *> Used;
  std::vector<std::pair<Function *, Function *>> Pairs;
  for (size_t I = 0; I != Cands.size(); ++I) {
    Function *F = Cands[I];
    if (Used.count(F))
      continue;
    Function *Chosen = nullptr, *Fallback = nullptr;
    for (size_t J = I + 1; J != Cands.size(); ++J) {
      Function *G = Cands[J];
      if (Used.count(G) || !canPair(*F, *G, CG, EA, M))
        continue;
      unsigned Total =
          1 + std::max<unsigned>(F->arg_size(), G->arg_size());
      if (Total <= 6) {
        Chosen = G;
        break;
      }
      if (!Fallback)
        Fallback = G;
    }
    if (!Chosen)
      Chosen = Fallback;
    if (!Chosen)
      continue;
    Used.insert(F);
    Used.insert(Chosen);
    Pairs.push_back({F, Chosen});
  }

  for (auto &[F, G] : Pairs) {
    PairFuser Fuser(M, F, G, Stats, Opts);
    Fuser.run();
  }
  Stats.TaggedPointerSites += rewriteIndirectCallSites(M);
}
