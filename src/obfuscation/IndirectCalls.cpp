//===- obfuscation/IndirectCalls.cpp - Direct-to-indirect calls -----------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct-to-indirect call rewriting after the llvm-msvc-xd plugin's
/// indirect-call pass: the addresses of all rewritten callees are placed
/// in a module-level i64 dispatch table in *shuffled* order, and each
/// rewritten site loads its slot, casts the address back to a function
/// pointer and calls it. The call graph's direct edges disappear from
/// static features; the VM and codegen both resolve the address through
/// the same tagged-function relocation machinery Fusion uses (tag 0 =
/// plain address), so runtime behaviour is unchanged.
///
/// Invoke sites, varargs/intrinsic/declared callees stay direct: EH edges
/// must keep their shape and VM intrinsics have no table identity.
///
//===----------------------------------------------------------------------===//

#include "obfuscation/OLLVM.h"

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/RNG.h"

#include <map>

using namespace khaos;

unsigned khaos::runIndirectCalls(Module &M, const OLLVMOptions &Opts,
                                 PassReport *Report) {
  RNG Rng(Opts.Seed);
  Context &Ctx = M.getContext();
  uint64_t Before = M.instructionCount();

  // Collect eligible sites in deterministic module order, assigning each
  // distinct callee a dense index as first seen.
  std::vector<CallInst *> Sites;
  std::vector<Function *> Callees;
  std::map<Function *, size_t> CalleeIdx;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration() || F->isNoObfuscate())
      continue;
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->insts()) {
        if (I->getOpcode() != Opcode::Call)
          continue; // Skips invokes: EH edges keep their shape.
        auto *CI = cast<CallInst>(I.get());
        Function *Callee = CI->getCalledFunction();
        if (!Callee || Callee->isDeclaration() || Callee->isIntrinsic() ||
            Callee->isVarArg())
          continue;
        if (!Rng.nextBool(Opts.Ratio))
          continue;
        Sites.push_back(CI);
        if (!CalleeIdx.count(Callee)) {
          CalleeIdx[Callee] = Callees.size();
          Callees.push_back(Callee);
        }
      }
    }
  }
  if (Sites.empty())
    return 0;

  // Dispatch table: callee addresses in shuffled slot order.
  std::vector<size_t> SlotOf(Callees.size());
  {
    std::vector<size_t> Order(Callees.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    Rng.shuffle(Order);
    for (size_t Slot = 0; Slot != Order.size(); ++Slot)
      SlotOf[Order[Slot]] = Slot;
  }
  Type *I64 = Ctx.getInt64Type();
  auto *TableTy = Ctx.getArrayType(I64, Callees.size());
  GlobalVariable *Table = M.createGlobal(M.uniqueName("ind.table"), TableTy);
  {
    std::vector<Constant *> Init(Callees.size());
    for (size_t I = 0; I != Callees.size(); ++I)
      Init[SlotOf[I]] = M.getTaggedFunc(I64, Callees[I], 0);
    Table->setInitializer(std::move(Init));
  }

  // Rewrite each site: load the slot, cast back to a function pointer of
  // the callee's exact type (so call arg checking still holds), call it.
  for (CallInst *CI : Sites) {
    Function *Callee = CI->getCalledFunction();
    IRBuilder B(M);
    B.setInsertBefore(CI);
    Value *SlotPtr = B.createGEP(
        Table, M.getInt64(static_cast<int64_t>(SlotOf[CalleeIdx[Callee]])),
        "ind.slot");
    Value *Addr = B.createLoad(SlotPtr, "ind.addr");
    Value *FP = B.createCast(CastKind::IntToPtr, Addr,
                             Ctx.getPointerType(Callee->getFunctionType()),
                             "ind.fp");
    std::vector<Value *> Args;
    for (unsigned A = 0, E = CI->getNumArgs(); A != E; ++A)
      Args.push_back(CI->getArg(A));
    CallInst *NewCI = B.createCall(FP, std::move(Args), CI->getName());
    if (CI->hasUses())
      CI->replaceAllUsesWith(NewCI);
    CI->eraseFromParent();
  }

  if (Report) {
    Report->SitesRewritten += static_cast<unsigned>(Sites.size());
    Report->BytesGrown += (M.instructionCount() - Before) * 4;
  }
  return static_cast<unsigned>(Sites.size());
}
