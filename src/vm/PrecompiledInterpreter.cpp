//===- vm/PrecompiledInterpreter.cpp - Direct-threaded engine ---------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Dispatch strategy: each opcode handler is a label and dispatch is one
// indirect `goto *table[op]` (direct threading, a GCC/Clang extension —
// the branch predictor sees one indirect jump per handler instead of a
// single shared switch branch).
//
// Parity discipline: every handler charges exactly the steps/costs the
// reference interpreter charges (both read vm/CostModel.h), in the same
// order relative to its memory effects and trap checks. Superinstructions
// charge per constituent (charge, effect, charge, effect, ...), so a
// step-limit trap fires at the same Steps value with the same partial
// state under both engines and with fusion on or off.
//
//===----------------------------------------------------------------------===//

#include "vm/PrecompiledInterpreter.h"

#include "ir/Module.h"
#include "support/StringUtils.h"
#include "vm/VMRuntime.h"

#include <algorithm>
#include <cstring>

using namespace khaos;

namespace {

/// Name of the block containing \p PC (BlockStartPc is ascending).
const std::string &blockNameAt(const BCFunction &BF, uint32_t PC) {
  auto It = std::upper_bound(BF.BlockStartPc.begin(), BF.BlockStartPc.end(),
                             PC);
  size_t Idx = static_cast<size_t>(It - BF.BlockStartPc.begin()) - 1;
  return BF.BlockNames[Idx];
}

class PrecompiledVM final : public VMRuntime {
public:
  PrecompiledVM(const BytecodeModule &BM, const ExecOptions &Opts)
      : VMRuntime(*BM.M, Opts), BM(BM) {}

  ExecResult run();

private:
  Flow execFunction(uint32_t FnIdx, const Slot *Args, uint32_t NArgs);

  void currentLocation(std::string &Fn, std::string &Blk) const override {
    if (!CurBF)
      return;
    Fn = CurBF->F->getName();
    if (!CurBF->BlockStartPc.empty())
      Blk = blockNameAt(*CurBF, CurPC);
  }

  const BytecodeModule &BM;
  /// One arena for all frames' register slots; frames are [Base, RegTop).
  std::vector<Slot> RegStack;
  size_t RegTop = 0;
  /// Execution cursor for trap attribution.
  const BCFunction *CurBF = nullptr;
  uint32_t CurPC = 0;
};

#define OP(Name) L_##Name:
#define DISPATCH()                                                             \
  do {                                                                         \
    In = &Code[PC];                                                            \
    CurPC = PC;                                                                \
    goto *JumpTable[static_cast<unsigned>(In->Op)];                            \
  } while (0)
#define NEXT()                                                                 \
  do {                                                                         \
    ++PC;                                                                      \
    DISPATCH();                                                                \
  } while (0)
#define JUMP(Target)                                                           \
  do {                                                                         \
    PC = (Target);                                                             \
    DISPATCH();                                                                \
  } while (0)

#define CHARGE(Amount)                                                         \
  do {                                                                         \
    if (!charge(Amount))                                                       \
      return Leave(Bad);                                                       \
  } while (0)

VMRuntime::Flow PrecompiledVM::execFunction(uint32_t FnIdx, const Slot *Args,
                                            uint32_t NArgs) {
  Flow Bad;
  Bad.Kind = FlowKind::Trap;
  if (++CallDepth > VMMaxCallDepth) {
    trap("call depth limit exceeded");
    --CallDepth;
    return Bad;
  }

  const BCFunction &BF = BM.Funcs[FnIdx];
  const size_t Base = RegTop;
  if (RegStack.size() < Base + BF.FrameSlots)
    RegStack.resize(std::max(RegStack.size() * 2,
                             Base + BF.FrameSlots + 64));
  RegTop = Base + BF.FrameSlots;
  Slot *R = RegStack.data() + Base;
  // Zero registers for determinism (the reference interpreter instead traps
  // on reads of never-written registers, which the Verifier rules out).
  std::memset(static_cast<void *>(R), 0, BF.NumRegs * sizeof(Slot));
  if (NArgs) {
    uint32_t Copy = NArgs < BF.NumArgs ? NArgs : BF.NumArgs;
    std::memcpy(static_cast<void *>(R), Args, Copy * sizeof(Slot));
  }
  if (!BF.ConstPool.empty())
    std::memcpy(static_cast<void *>(R + BF.NumRegs), BF.ConstPool.data(),
                BF.ConstPool.size() * sizeof(Slot));

  const uint64_t StackMark = StackPtr;
  const BCFunction *PrevBF = CurBF;
  const uint32_t PrevPC = CurPC;
  CurBF = &BF;

  int64_t CurrentException = 0;
  /// Active setjmp records: token -> pc of the setjmp call.
  std::vector<std::pair<uint64_t, uint32_t>> JumpRecs;

  auto Leave = [&](Flow Rv) {
    StackPtr = StackMark;
    --CallDepth;
    CurBF = PrevBF;
    CurPC = PrevPC;
    RegTop = Base;
    return Rv;
  };

  const BCInst *Code = BF.Code.data();
  const BCInst *In = Code;
  uint32_t PC = 0;

  Flow LeaveFlow;
  /// Shared disposition of a finished call: 0 = continue at NextPC,
  /// 1 = unwind this frame with LeaveFlow.
  auto HandleCallFlow = [&](const Flow &Sub, const BCInst &CallIn,
                            uint32_t &NextPC) -> int {
    switch (Sub.Kind) {
    case FlowKind::Trap:
      LeaveFlow = Bad;
      return 1;
    case FlowKind::Return:
    case FlowKind::Normal:
      if (CallIn.A != BCNoReg)
        R[CallIn.A] = Sub.RetVal;
      NextPC = (CallIn.Sub & 1) ? CallIn.C : CurPC + 1;
      return 0;
    case FlowKind::Exception:
      if (CallIn.Sub & 1) {
        CurrentException = Sub.ExcPayload;
        NextPC = static_cast<uint32_t>(CallIn.Imm);
        return 0;
      }
      LeaveFlow = Sub; // Propagate through plain calls.
      return 1;
    case FlowKind::LongJmp:
      for (const auto &Rec : JumpRecs) {
        if (Rec.first != Sub.JmpToken)
          continue;
        const uint32_t SJPc = Rec.second;
        const BCInst &SJ = Code[SJPc];
        if (SJ.Sub & 1) {
          // setjmp via invoke: the reference interpreter resumes past the
          // terminator and falls off the block.
          CurPC = SJPc;
          trap("fell off the end of block '" + blockNameAt(BF, SJPc) + "'");
          LeaveFlow = Bad;
          return 1;
        }
        // Resume right after the setjmp call with the longjmp value.
        if (SJ.A != BCNoReg)
          R[SJ.A].I = Sub.JmpValue;
        NextPC = SJPc + 1;
        return 0;
      }
      LeaveFlow = Sub; // Propagate to the setjmp frame.
      return 1;
    }
    LeaveFlow = Bad;
    return 1;
  };

  // One entry per BC opcode, in declaration order.
  static const void *const JumpTable[] = {
      &&L_AllocaOp,   &&L_LoadOp,     &&L_StoreOp,       &&L_AddI,
      &&L_SubI,       &&L_MulI,       &&L_DivI,          &&L_RemI,
      &&L_AndI,       &&L_OrI,        &&L_XorI,          &&L_ShlI,
      &&L_AShrI,      &&L_LShrI,      &&L_AddF,          &&L_SubF,
      &&L_MulF,       &&L_DivF,       &&L_CmpIOp,        &&L_CmpFOp,
      &&L_CastOp,     &&L_GEPOp,      &&L_SelectOp,      &&L_LandingPadOp,
      &&L_Jmp,        &&L_BrCond,     &&L_SwitchOp,      &&L_RetVoid,
      &&L_RetVal,     &&L_ThrowOp,    &&L_UnreachableOp, &&L_FellOff,
      &&L_CallOp,     &&L_CmpBrI,     &&L_CmpBrF,        &&L_LoadBinStoreI,
      &&L_CallDirect4,
  };
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) ==
                    static_cast<size_t>(BC::NumOpcodes),
                "jump table out of sync with BC");
  DISPATCH();

  OP(AllocaOp) {
    CHARGE(CostModel::Alloca);
    const uint64_t Size = In->Imm;
    if (StackPtr + Size > HeapPtr / 2 + Mem.size() / 4) {
      trap("stack overflow");
      return Leave(Bad);
    }
    R[In->A].I = static_cast<int64_t>(StackPtr);
    // Zero the slot: MiniC relies on deterministic memory for the
    // semantic-equality oracle.
    std::memset(Mem.data() + StackPtr, 0, Size);
    StackPtr += Size;
    NEXT();
  }

  OP(LoadOp) {
    CHARGE(CostModel::Memory);
    if (!loadKinded(static_cast<uint64_t>(R[In->B].I),
                    static_cast<TypeKind>(In->Sub), R[In->A]))
      return Leave(Bad);
    NEXT();
  }

  OP(StoreOp) {
    CHARGE(CostModel::Memory);
    if (!storeKinded(static_cast<uint64_t>(R[In->B].I),
                     static_cast<TypeKind>(In->Sub), R[In->A]))
      return Leave(Bad);
    NEXT();
  }

  // Each handler passes its binop as a constant, so binOpCost, divTrap and
  // binOp reduce to that one operation.
#define BINOP(Name, Op)                                                        \
  OP(Name) {                                                                   \
    CHARGE(CostModel::binOpCost(Op));                                          \
    if (const char *Msg = divTrap(Op, R[In->B].I, R[In->C].I)) {               \
      trap(Msg);                                                               \
      return Leave(Bad);                                                       \
    }                                                                          \
    R[In->A] =                                                                 \
        binOp(Op, R[In->B], R[In->C], static_cast<TypeKind>(In->Sub));         \
    NEXT();                                                                    \
  }

  BINOP(AddI, BinOp::Add)
  BINOP(SubI, BinOp::Sub)
  BINOP(MulI, BinOp::Mul)
  BINOP(DivI, BinOp::SDiv)
  BINOP(RemI, BinOp::SRem)
  BINOP(AndI, BinOp::And)
  BINOP(OrI, BinOp::Or)
  BINOP(XorI, BinOp::Xor)
  BINOP(ShlI, BinOp::Shl)
  BINOP(AShrI, BinOp::AShr)
  BINOP(LShrI, BinOp::LShr)
  BINOP(AddF, BinOp::FAdd)
  BINOP(SubF, BinOp::FSub)
  BINOP(MulF, BinOp::FMul)
  BINOP(DivF, BinOp::FDiv)
#undef BINOP

  OP(CmpIOp) {
    CHARGE(CostModel::Simple);
    R[In->A].I =
        cmpOp(static_cast<CmpPred>(In->Sub), R[In->B].I, R[In->C].I);
    NEXT();
  }

  OP(CmpFOp) {
    CHARGE(CostModel::Simple);
    R[In->A].I =
        cmpOp(static_cast<CmpPred>(In->Sub), R[In->B].F, R[In->C].F);
    NEXT();
  }

  OP(CastOp) {
    CHARGE(CostModel::Simple);
    R[In->A] = castOp(static_cast<CastKind>(In->Sub), R[In->B],
                      static_cast<TypeKind>(In->N >> 8),
                      static_cast<TypeKind>(In->N & 0xFF));
    NEXT();
  }

  OP(GEPOp) {
    CHARGE(CostModel::Simple);
    R[In->A].I = gepAddress(R[In->B].I, R[In->C].I, In->Imm);
    NEXT();
  }

  OP(SelectOp) {
    CHARGE(CostModel::Simple);
    R[In->A] = (R[In->B].I & 1) ? R[In->C] : R[In->Aux];
    NEXT();
  }

  OP(LandingPadOp) {
    CHARGE(CostModel::Simple);
    R[In->A].I = CurrentException;
    NEXT();
  }

  OP(Jmp) {
    CHARGE(CostModel::Simple);
    JUMP(In->A);
  }

  OP(BrCond) {
    CHARGE(CostModel::Simple);
    JUMP((R[In->A].I & 1) ? In->B : In->C);
  }

  OP(SwitchOp) {
    CHARGE(CostModel::Switch);
    const int64_t V = R[In->A].I;
    uint32_t Target = In->B;
    const BCCase *CS = BF.Cases.data() + In->Aux;
    for (uint32_t K = 0, E = In->N; K != E; ++K) {
      if (CS[K].Val == V) {
        Target = CS[K].Target;
        break;
      }
    }
    JUMP(Target);
  }

  OP(RetVoid) {
    CHARGE(CostModel::Simple);
    Flow Rf;
    Rf.Kind = FlowKind::Return;
    return Leave(Rf);
  }

  OP(RetVal) {
    CHARGE(CostModel::Simple);
    Flow Rf;
    Rf.Kind = FlowKind::Return;
    Rf.RetVal = R[In->A];
    return Leave(Rf);
  }

  OP(ThrowOp) {
    CHARGE(CostModel::Throw);
    Flow Ef;
    Ef.Kind = FlowKind::Exception;
    Ef.ExcPayload = R[In->A].I;
    return Leave(Ef);
  }

  OP(UnreachableOp) {
    trap("reached 'unreachable'");
    return Leave(Bad);
  }

  OP(FellOff) {
    trap("fell off the end of block '" + BF.BlockNames[In->A] + "'");
    return Leave(Bad);
  }

  OP(CallOp) {
    const uint32_t Argc = In->N;
    CHARGE(CostModel::callCost(Argc, (In->Sub & 2) != 0));

    uint32_t FnIdx;
    if (In->Sub & 2) {
      const uint64_t Addr = static_cast<uint64_t>(R[In->B].I);
      if (!BM.funcForAddr(Addr, FnIdx)) {
        trap(formatStr("indirect call to invalid address 0x%llx",
                       (unsigned long long)Addr));
        return Leave(Bad);
      }
    } else {
      FnIdx = In->B;
    }

    const BCFunction &Callee = BM.Funcs[FnIdx];
    const BCArg *AP = BF.ArgPool.data() + In->Aux;
    Flow Sub;
    switch (Callee.Kind) {
    case BCCallKind::Setjmp: {
      if (Argc < 1) {
        trap("malformed setjmp call");
        return Leave(Bad);
      }
      Cost += CostModel::SetJmp;
      const uint64_t Token = NextJmpToken++;
      JumpRecs.emplace_back(Token, PC);
      Slot TokenSlot;
      TokenSlot.I = static_cast<int64_t>(Token);
      if (!storeKinded(static_cast<uint64_t>(R[AP[0].Slot].I),
                       TypeKind::Int64, TokenSlot))
        return Leave(Bad);
      Sub.Kind = FlowKind::Return;
      Sub.RetVal.I = 0;
      break;
    }
    case BCCallKind::Longjmp: {
      if (Argc < 2) {
        trap("malformed longjmp call");
        return Leave(Bad);
      }
      Cost += CostModel::LongJmp;
      Slot TokenSlot;
      if (!loadKinded(static_cast<uint64_t>(R[AP[0].Slot].I),
                      TypeKind::Int64, TokenSlot))
        return Leave(Bad);
      Sub.Kind = FlowKind::LongJmp;
      Sub.JmpToken = static_cast<uint64_t>(TokenSlot.I);
      const int64_t JV = R[AP[1].Slot].I;
      Sub.JmpValue = JV ? JV : 1;
      break;
    }
    case BCCallKind::Intrinsic: {
      std::vector<Slot> CallArgs(Argc);
      std::vector<const Type *> CallArgTys(Argc);
      for (uint32_t A2 = 0; A2 != Argc; ++A2) {
        CallArgs[A2] = R[AP[A2].Slot];
        CallArgTys[A2] = AP[A2].Ty;
      }
      Sub = runIntrinsic(Callee.F, CallArgs, CallArgTys);
      break;
    }
    case BCCallKind::Normal: {
      Slot SmallBuf[8];
      std::vector<Slot> BigBuf;
      Slot *ArgBuf = SmallBuf;
      if (Argc > 8) {
        BigBuf.resize(Argc);
        ArgBuf = BigBuf.data();
      }
      for (uint32_t A2 = 0; A2 != Argc; ++A2)
        ArgBuf[A2] = R[AP[A2].Slot];
      Sub = execFunction(FnIdx, ArgBuf, Argc);
      R = RegStack.data() + Base; // The arena may have grown.
      break;
    }
    }

    uint32_t NextPC;
    if (HandleCallFlow(Sub, *In, NextPC))
      return Leave(LeaveFlow);
    JUMP(NextPC);
  }

  OP(CmpBrI) {
    CHARGE(CostModel::Simple); // The cmp.
    const bool Res =
        cmpOp(static_cast<CmpPred>(In->Sub), R[In->A].I, R[In->B].I);
    CHARGE(CostModel::Simple); // The branch.
    JUMP(Res ? In->C : In->Aux);
  }

  OP(CmpBrF) {
    CHARGE(CostModel::Simple);
    const bool Res =
        cmpOp(static_cast<CmpPred>(In->Sub), R[In->A].F, R[In->B].F);
    CHARGE(CostModel::Simple);
    JUMP(Res ? In->C : In->Aux);
  }

  OP(LoadBinStoreI) {
    CHARGE(CostModel::Memory); // The load.
    Slot LV;
    if (!loadKinded(static_cast<uint64_t>(R[In->A].I),
                    static_cast<TypeKind>(In->N >> 8), LV))
      return Leave(Bad);
    CHARGE(CostModel::Simple); // The binop (div/rem are never fused).
    int64_t L, Rv;
    if (In->Imm & 1) {
      L = R[In->B].I;
      Rv = LV.I;
    } else {
      L = LV.I;
      Rv = R[In->B].I;
    }
    const TypeKind ResK = static_cast<TypeKind>(In->N & 0xFF);
    Slot SV;
    SV.I = narrowInt(intBinOp(static_cast<BinOp>(In->Sub), L, Rv), ResK);
    CHARGE(CostModel::Memory); // The store.
    if (!storeKinded(static_cast<uint64_t>(R[In->C].I), ResK, SV))
      return Leave(Bad);
    NEXT();
  }

  OP(CallDirect4) {
    const uint32_t Argc = In->N;
    CHARGE(CostModel::callCost(Argc, /*Indirect=*/false));
    Slot ArgBuf[4];
    switch (Argc) {
    case 4:
      ArgBuf[3] = R[static_cast<uint32_t>(In->Imm >> 32)];
      [[fallthrough]];
    case 3:
      ArgBuf[2] = R[static_cast<uint32_t>(In->Imm)];
      [[fallthrough]];
    case 2:
      ArgBuf[1] = R[In->Aux];
      [[fallthrough]];
    case 1:
      ArgBuf[0] = R[In->C];
      break;
    default:
      break;
    }
    Flow Sub = execFunction(In->B, ArgBuf, Argc);
    R = RegStack.data() + Base; // The arena may have grown.
    uint32_t NextPC;
    if (HandleCallFlow(Sub, *In, NextPC))
      return Leave(LeaveFlow);
    JUMP(NextPC);
  }
}

#undef OP
#undef DISPATCH
#undef NEXT
#undef JUMP
#undef CHARGE

ExecResult PrecompiledVM::run() {
  ExecResult Res;
  if (!layoutGlobals()) {
    Res.Error = TrapMessage;
    return Res;
  }
  if (BM.MainIndex == BCNoReg) {
    Res.Error = "no main() in module";
    return Res;
  }
  RegStack.resize(4096);
  return finishRun(execFunction(BM.MainIndex, nullptr, 0));
}

} // namespace

ExecResult khaos::runPrecompiled(const BytecodeModule &BM,
                                 const ExecOptions &Opts) {
  return PrecompiledVM(BM, Opts).run();
}
