//===- vm/Interpreter.cpp - Reference KIR interpreter ---------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The reference execution engine: a direct walk over the IR, one std::map
// register file per frame. It is deliberately simple — it is the semantic
// oracle the precompiled engine (PrecompiledInterpreter.cpp) is checked
// against, so clarity beats speed here. All machine state and intrinsic
// behavior live in VMRuntime, shared with the other engine; the value of
// each operation comes from ir/OpSemantics.h, shared with ConstantFold too.
//
//===----------------------------------------------------------------------===//

#include "vm/Interpreter.h"

#include "ir/Module.h"
#include "support/StringUtils.h"
#include "vm/Bytecode.h"
#include "vm/PrecompiledInterpreter.h"
#include "vm/VMRuntime.h"

#include <cassert>
#include <cstring>
#include <map>
#include <vector>

using namespace khaos;

namespace {

class ReferenceVM final : public VMRuntime {
public:
  ReferenceVM(const Module &M, const ExecOptions &Opts) : VMRuntime(M, Opts) {}

  ExecResult run();

private:
  // -- Execution -----------------------------------------------------------
  struct Frame {
    std::map<const Value *, Slot> Regs;
    uint64_t StackMark = 0;
    /// Active setjmp records: token -> (block, index of setjmp call).
    std::map<uint64_t, std::pair<const BasicBlock *, size_t>> Jumps;
  };

  Flow execFunction(const Function *F, const std::vector<Slot> &Args);
  bool evalOperand(Frame &FR, const Value *V, Slot &Out);
  Flow callTarget(const Function *Callee, const std::vector<Slot> &Args,
                  const std::vector<const Type *> &ArgTys);

  void currentLocation(std::string &Fn, std::string &Blk) const override {
    if (!CurFunc)
      return;
    Fn = CurFunc->getName();
    if (CurBlock)
      Blk = CurBlock->getName();
  }

  /// Execution cursor for trap attribution (updated by execFunction).
  const Function *CurFunc = nullptr;
  const BasicBlock *CurBlock = nullptr;
};

} // namespace

//===----------------------------------------------------------------------===//
// Operand evaluation
//===----------------------------------------------------------------------===//

bool ReferenceVM::evalOperand(Frame &FR, const Value *V, Slot &Out) {
  switch (V->getValueKind()) {
  case ValueKind::ConstantInt:
    Out.I = cast<ConstantInt>(V)->getValue();
    return true;
  case ValueKind::ConstantFP:
    Out.F = cast<ConstantFP>(V)->getValue();
    return true;
  case ValueKind::ConstantNull:
    Out.I = 0;
    return true;
  case ValueKind::ConstantTaggedFunc: {
    const auto *TF = cast<ConstantTaggedFunc>(V);
    Out.I = static_cast<int64_t>(FuncAddrs[TF->getFunction()] |
                                 TF->getTag());
    return true;
  }
  case ValueKind::GlobalVariable:
    Out.I = static_cast<int64_t>(GlobalAddrs[cast<GlobalVariable>(V)]);
    return true;
  case ValueKind::Function:
    Out.I = static_cast<int64_t>(FuncAddrs[cast<Function>(V)]);
    return true;
  case ValueKind::Argument:
  case ValueKind::Instruction: {
    auto It = FR.Regs.find(V);
    if (It == FR.Regs.end())
      return trap("use of undefined value '" + V->getName() + "'");
    Out = It->second;
    return true;
  }
  }
  return trap("unknown operand kind");
}

//===----------------------------------------------------------------------===//
// Function execution
//===----------------------------------------------------------------------===//

VMRuntime::Flow ReferenceVM::callTarget(const Function *Callee,
                                        const std::vector<Slot> &Args,
                                        const std::vector<const Type *> &ArgTys) {
  if (Callee->isIntrinsic() || Callee->isDeclaration()) {
    // setjmp/longjmp are handled by the caller's instruction loop (they
    // need frame context); everything else is a plain intrinsic.
    return runIntrinsic(Callee, Args, ArgTys);
  }
  return execFunction(Callee, Args);
}

VMRuntime::Flow ReferenceVM::execFunction(const Function *F,
                                          const std::vector<Slot> &Args) {
  Flow Bad;
  Bad.Kind = FlowKind::Trap;
  if (++CallDepth > VMMaxCallDepth) {
    trap("call depth limit exceeded");
    --CallDepth;
    return Bad;
  }

  Frame FR;
  FR.StackMark = StackPtr;
  for (unsigned I = 0, E = F->arg_size(); I != E; ++I)
    FR.Regs[F->getArg(I)] = I < Args.size() ? Args[I] : Slot{0};

  const BasicBlock *BB = F->getEntryBlock();
  size_t Idx = 0;
  int64_t CurrentException = 0;

  // Trap-attribution cursor: point at this frame while it executes and
  // restore the caller's position on the way out (calls recurse here).
  const Function *PrevFunc = CurFunc;
  const BasicBlock *PrevBlock = CurBlock;
  CurFunc = F;

  auto Leave = [&](Flow R) {
    StackPtr = FR.StackMark;
    --CallDepth;
    CurFunc = PrevFunc;
    CurBlock = PrevBlock;
    return R;
  };

  while (true) {
    // Keep the trap-attribution cursor current. CurFunc needs no store
    // here: it is set before the loop and restored by every nested
    // execFunction's Leave.
    CurBlock = BB;
    if (Trapped)
      return Leave(Bad);
    if (Idx >= BB->size()) {
      trap("fell off the end of block '" + BB->getName() + "'");
      return Leave(Bad);
    }
    const Instruction *I = BB->getInst(Idx);

    switch (I->getOpcode()) {
    case Opcode::Alloca: {
      if (!charge(CostModel::Alloca))
        return Leave(Bad);
      const auto *AI = cast<AllocaInst>(I);
      uint64_t Size = (AI->getAllocatedType()->getStoreSize() + 7) & ~7ull;
      if (StackPtr + Size > HeapPtr / 2 + Mem.size() / 4) {
        trap("stack overflow");
        return Leave(Bad);
      }
      Slot S;
      S.I = static_cast<int64_t>(StackPtr);
      // Zero the slot: MiniC relies on deterministic memory for the
      // semantic-equality oracle.
      std::memset(Mem.data() + StackPtr, 0, Size);
      StackPtr += Size;
      FR.Regs[I] = S;
      ++Idx;
      break;
    }
    case Opcode::Load: {
      if (!charge(CostModel::Memory))
        return Leave(Bad);
      Slot Ptr, Out;
      if (!evalOperand(FR, I->getOperand(0), Ptr) ||
          !loadTyped(static_cast<uint64_t>(Ptr.I), I->getType(), Out))
        return Leave(Bad);
      FR.Regs[I] = Out;
      ++Idx;
      break;
    }
    case Opcode::Store: {
      if (!charge(CostModel::Memory))
        return Leave(Bad);
      Slot V, Ptr;
      if (!evalOperand(FR, I->getOperand(0), V) ||
          !evalOperand(FR, I->getOperand(1), Ptr) ||
          !storeTyped(static_cast<uint64_t>(Ptr.I),
                      I->getOperand(0)->getType(), V))
        return Leave(Bad);
      ++Idx;
      break;
    }
    case Opcode::BinOp: {
      const auto *BO = cast<BinaryInst>(I);
      if (!charge(CostModel::binOpCost(BO->getBinOp())))
        return Leave(Bad);
      Slot L, R;
      if (!evalOperand(FR, BO->getLHS(), L) ||
          !evalOperand(FR, BO->getRHS(), R))
        return Leave(Bad);
      if (const char *Msg = divTrap(BO->getBinOp(), L.I, R.I)) {
        trap(Msg);
        return Leave(Bad);
      }
      FR.Regs[I] = binOp(BO->getBinOp(), L, R, I->getType()->getKind());
      ++Idx;
      break;
    }
    case Opcode::Cmp: {
      if (!charge(CostModel::Simple))
        return Leave(Bad);
      const auto *CI = cast<CmpInst>(I);
      Slot L, R, Out;
      if (!evalOperand(FR, CI->getLHS(), L) ||
          !evalOperand(FR, CI->getRHS(), R))
        return Leave(Bad);
      Out.I = CI->getLHS()->getType()->isFloatingPoint()
                  ? cmpOp(CI->getPredicate(), L.F, R.F)
                  : cmpOp(CI->getPredicate(), L.I, R.I);
      FR.Regs[I] = Out;
      ++Idx;
      break;
    }
    case Opcode::Cast: {
      if (!charge(CostModel::Simple))
        return Leave(Bad);
      const auto *CI = cast<CastInst>(I);
      Slot V;
      if (!evalOperand(FR, CI->getSource(), V))
        return Leave(Bad);
      FR.Regs[I] = castOp(CI->getCastKind(), V,
                          CI->getSource()->getType()->getKind(),
                          I->getType()->getKind());
      ++Idx;
      break;
    }
    case Opcode::GEP: {
      if (!charge(CostModel::Simple))
        return Leave(Bad);
      const auto *G = cast<GEPInst>(I);
      Slot P, N, Out;
      if (!evalOperand(FR, G->getPointer(), P) ||
          !evalOperand(FR, G->getIndex(), N))
        return Leave(Bad);
      Out.I = gepAddress(P.I, N.I, G->getElementSize());
      FR.Regs[I] = Out;
      ++Idx;
      break;
    }
    case Opcode::Select: {
      if (!charge(CostModel::Simple))
        return Leave(Bad);
      Slot C, T, F2;
      if (!evalOperand(FR, I->getOperand(0), C) ||
          !evalOperand(FR, I->getOperand(1), T) ||
          !evalOperand(FR, I->getOperand(2), F2))
        return Leave(Bad);
      FR.Regs[I] = (C.I & 1) ? T : F2;
      ++Idx;
      break;
    }
    case Opcode::LandingPad: {
      if (!charge(CostModel::Simple))
        return Leave(Bad);
      Slot Out;
      Out.I = CurrentException;
      FR.Regs[I] = Out;
      ++Idx;
      break;
    }
    case Opcode::Call:
    case Opcode::Invoke: {
      const auto *CI = cast<CallInst>(I);
      if (!charge(CostModel::callCost(CI->getNumArgs(), CI->isIndirect())))
        return Leave(Bad);

      // Resolve the callee.
      const Function *Callee = CI->getCalledFunction();
      if (!Callee) {
        Slot P;
        if (!evalOperand(FR, CI->getCallee(), P))
          return Leave(Bad);
        auto It = AddrFuncs.find(static_cast<uint64_t>(P.I));
        if (It == AddrFuncs.end()) {
          trap(formatStr("indirect call to invalid address 0x%llx",
                         (unsigned long long)P.I));
          return Leave(Bad);
        }
        Callee = It->second;
      }

      std::vector<Slot> CallArgs(CI->getNumArgs());
      std::vector<const Type *> CallArgTys(CI->getNumArgs());
      for (unsigned A = 0, E = CI->getNumArgs(); A != E; ++A) {
        if (!evalOperand(FR, CI->getArg(A), CallArgs[A]))
          return Leave(Bad);
        CallArgTys[A] = CI->getArg(A)->getType();
      }

      // setjmp/longjmp need access to this frame.
      Flow Sub;
      if (Callee->getName() == "setjmp" && Callee->isIntrinsic()) {
        Cost += CostModel::SetJmp;
        uint64_t Token = NextJmpToken++;
        // Record the resume point and write the token into the buffer.
        FR.Jumps[Token] = {BB, Idx};
        Slot TokenSlot;
        TokenSlot.I = static_cast<int64_t>(Token);
        if (!storeTyped(static_cast<uint64_t>(CallArgs[0].I),
                        M.getContext().getInt64Type(), TokenSlot))
          return Leave(Bad);
        Sub.Kind = FlowKind::Return;
        Sub.RetVal.I = 0;
      } else if (Callee->getName() == "longjmp" && Callee->isIntrinsic()) {
        Cost += CostModel::LongJmp;
        Slot TokenSlot;
        if (!loadTyped(static_cast<uint64_t>(CallArgs[0].I),
                       M.getContext().getInt64Type(), TokenSlot))
          return Leave(Bad);
        Sub.Kind = FlowKind::LongJmp;
        Sub.JmpToken = static_cast<uint64_t>(TokenSlot.I);
        Sub.JmpValue = CallArgs[1].I ? CallArgs[1].I : 1;
      } else {
        Sub = callTarget(Callee, CallArgs, CallArgTys);
      }

      switch (Sub.Kind) {
      case FlowKind::Trap:
        return Leave(Bad);
      case FlowKind::Return:
      case FlowKind::Normal:
        if (I->getType() && !I->getType()->isVoid())
          FR.Regs[I] = Sub.RetVal;
        if (const auto *IV = dyn_cast<InvokeInst>(I)) {
          BB = IV->getNormalDest();
          Idx = 0;
        } else {
          ++Idx;
        }
        break;
      case FlowKind::Exception:
        if (const auto *IV = dyn_cast<InvokeInst>(I)) {
          CurrentException = Sub.ExcPayload;
          BB = IV->getUnwindDest();
          Idx = 0;
          break;
        }
        return Leave(Sub); // Propagate through plain calls.
      case FlowKind::LongJmp: {
        auto It = FR.Jumps.find(Sub.JmpToken);
        if (It == FR.Jumps.end())
          return Leave(Sub); // Propagate to the setjmp frame.
        // Resume right after the setjmp call with the longjmp value.
        BB = It->second.first;
        Idx = It->second.second;
        const Instruction *SJ = BB->getInst(Idx);
        Slot RV;
        RV.I = Sub.JmpValue;
        FR.Regs[SJ] = RV;
        ++Idx;
        break;
      }
      }
      break;
    }
    case Opcode::Throw: {
      if (!charge(CostModel::Throw))
        return Leave(Bad);
      Slot P;
      if (!evalOperand(FR, I->getOperand(0), P))
        return Leave(Bad);
      Flow R;
      R.Kind = FlowKind::Exception;
      R.ExcPayload = P.I;
      return Leave(R);
    }
    case Opcode::Br: {
      if (!charge(CostModel::Simple))
        return Leave(Bad);
      const auto *BR = cast<BranchInst>(I);
      if (BR->isConditional()) {
        Slot C;
        if (!evalOperand(FR, BR->getCondition(), C))
          return Leave(Bad);
        BB = (C.I & 1) ? BR->getTrueDest() : BR->getFalseDest();
      } else {
        BB = BR->getSuccessor(0);
      }
      Idx = 0;
      break;
    }
    case Opcode::Switch: {
      if (!charge(CostModel::Switch))
        return Leave(Bad);
      const auto *SW = cast<SwitchInst>(I);
      Slot C;
      if (!evalOperand(FR, SW->getCondition(), C))
        return Leave(Bad);
      const BasicBlock *Dest = SW->getDefaultDest();
      for (unsigned K = 0, E = SW->getNumCases(); K != E; ++K)
        if (SW->getCaseValue(K) == C.I) {
          Dest = SW->getCaseDest(K);
          break;
        }
      BB = Dest;
      Idx = 0;
      break;
    }
    case Opcode::Ret: {
      if (!charge(CostModel::Simple))
        return Leave(Bad);
      const auto *RI = cast<ReturnInst>(I);
      Flow R;
      R.Kind = FlowKind::Return;
      if (RI->hasReturnValue() &&
          !evalOperand(FR, RI->getReturnValue(), R.RetVal))
        return Leave(Bad);
      return Leave(R);
    }
    case Opcode::Unreachable:
      trap("reached 'unreachable'");
      return Leave(Bad);
    }
  }
}

ExecResult ReferenceVM::run() {
  ExecResult Res;
  if (!layoutGlobals()) {
    Res.Error = TrapMessage;
    return Res;
  }
  const Function *Main = M.getFunction("main");
  if (!Main || Main->isDeclaration()) {
    Res.Error = "no main() in module";
    return Res;
  }
  return finishRun(execFunction(Main, {}));
}

//===----------------------------------------------------------------------===//
// Engine seam
//===----------------------------------------------------------------------===//

const char *khaos::vmEngineName(VMEngine E) {
  switch (E) {
  case VMEngine::Reference:
    return "reference";
  case VMEngine::Precompiled:
    return "precompiled";
  }
  return "unknown";
}

bool khaos::parseVMEngineName(const std::string &Name, VMEngine &Out) {
  if (Name == "reference") {
    Out = VMEngine::Reference;
    return true;
  }
  if (Name == "precompiled") {
    Out = VMEngine::Precompiled;
    return true;
  }
  return false;
}

ExecResult khaos::runModule(const Module &M, const ExecOptions &Opts) {
  if (Opts.Engine == VMEngine::Precompiled) {
    BytecodeModule BM;
    precompileModule(M, BM);
    return runPrecompiled(BM, Opts);
  }
  return ReferenceVM(M, Opts).run();
}
