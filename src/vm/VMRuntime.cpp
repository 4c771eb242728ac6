//===- vm/VMRuntime.cpp - Shared execution-engine substrate -----------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "vm/VMRuntime.h"

#include "ir/Module.h"
#include "support/StringUtils.h"

#include <cctype>

using namespace khaos;

void khaos::computeAddressMap(
    const Module &M, std::map<const Function *, uint64_t> &FuncAddrs,
    std::map<const GlobalVariable *, uint64_t> &GlobalAddrs) {
  uint64_t NextFunc = VMFuncBase;
  for (const auto &F : M.functions()) {
    FuncAddrs[F.get()] = NextFunc;
    NextFunc += VMFuncStride;
  }
  uint64_t Next = VMGlobalBase;
  for (const auto &G : M.globals()) {
    uint64_t Size = G->getValueType()->getStoreSize();
    // 8-byte align every global.
    Next = (Next + 7) & ~7ull;
    GlobalAddrs[G.get()] = Next;
    Next += Size;
  }
}

//===----------------------------------------------------------------------===//
// Memory access
//===----------------------------------------------------------------------===//

bool VMRuntime::loadBytes(uint64_t Addr, void *Out, uint64_t Size) {
  if (!validRange(Addr, Size))
    return trap(formatStr("invalid load of %llu bytes at 0x%llx",
                          (unsigned long long)Size,
                          (unsigned long long)Addr));
  std::memcpy(Out, Mem.data() + Addr, Size);
  return true;
}

bool VMRuntime::storeBytes(uint64_t Addr, const void *In, uint64_t Size) {
  if (!validRange(Addr, Size))
    return trap(formatStr("invalid store of %llu bytes at 0x%llx",
                          (unsigned long long)Size,
                          (unsigned long long)Addr));
  std::memcpy(Mem.data() + Addr, In, Size);
  return true;
}

bool VMRuntime::loadKinded(uint64_t Addr, TypeKind K, Slot &Out) {
  Out.I = 0;
  switch (K) {
  case TypeKind::Int1:
  case TypeKind::Int8: {
    int8_t V = 0;
    if (!loadBytes(Addr, &V, 1))
      return false;
    Out.I = V;
    return true;
  }
  case TypeKind::Int32: {
    int32_t V = 0;
    if (!loadBytes(Addr, &V, 4))
      return false;
    Out.I = V;
    return true;
  }
  case TypeKind::Int64:
  case TypeKind::Pointer: {
    int64_t V = 0;
    if (!loadBytes(Addr, &V, 8))
      return false;
    Out.I = V;
    return true;
  }
  case TypeKind::Float: {
    float V = 0;
    if (!loadBytes(Addr, &V, 4))
      return false;
    Out.F = V;
    return true;
  }
  case TypeKind::Double: {
    double V = 0;
    if (!loadBytes(Addr, &V, 8))
      return false;
    Out.F = V;
    return true;
  }
  default:
    return trap("load of unsupported type");
  }
}

bool VMRuntime::storeKinded(uint64_t Addr, TypeKind K, Slot V) {
  switch (K) {
  case TypeKind::Int1:
  case TypeKind::Int8: {
    int8_t B = static_cast<int8_t>(V.I);
    return storeBytes(Addr, &B, 1);
  }
  case TypeKind::Int32: {
    int32_t W = static_cast<int32_t>(V.I);
    return storeBytes(Addr, &W, 4);
  }
  case TypeKind::Int64:
  case TypeKind::Pointer:
    return storeBytes(Addr, &V.I, 8);
  case TypeKind::Float: {
    float F = static_cast<float>(V.F);
    return storeBytes(Addr, &F, 4);
  }
  case TypeKind::Double:
    return storeBytes(Addr, &V.F, 8);
  default:
    return trap("store of unsupported type");
  }
}

bool VMRuntime::loadTyped(uint64_t Addr, const Type *Ty, Slot &Out) {
  return loadKinded(Addr, Ty->getKind(), Out);
}

bool VMRuntime::storeTyped(uint64_t Addr, const Type *Ty, Slot V) {
  return storeKinded(Addr, Ty->getKind(), V);
}

bool VMRuntime::trap(const std::string &Msg) {
  if (!Trapped) {
    Trapped = true;
    TrapMessage = Msg;
    // Stamp the faulting location so divergence repros are actionable:
    // traps outside function execution (global layout) carry none.
    std::string Fn, Blk;
    currentLocation(Fn, Blk);
    if (!Fn.empty()) {
      TrapFunction = Fn;
      TrapBlock = Blk;
      TrapMessage += " (in " + TrapFunction + ":" +
                     (TrapBlock.empty() ? "?" : TrapBlock) + ")";
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

int64_t VMRuntime::constantValue(const Constant *C) {
  if (const auto *CI = dyn_cast<ConstantInt>(C))
    return CI->getValue();
  if (isa<ConstantNull>(C))
    return 0;
  if (const auto *TF = dyn_cast<ConstantTaggedFunc>(C))
    return static_cast<int64_t>(FuncAddrs[TF->getFunction()] |
                                TF->getTag());
  return 0; // FP handled by caller.
}

bool VMRuntime::layoutGlobals() {
  Mem.assign(VMMemoryBytes, 0);

  // Function address space first (tagged constants in initializers need
  // addresses).
  computeAddressMap(M, FuncAddrs, GlobalAddrs);
  for (const auto &Entry : FuncAddrs)
    AddrFuncs[Entry.second] = Entry.first;

  uint64_t Next = VMGlobalBase;
  for (const auto &G : M.globals()) {
    Type *VT = G->getValueType();
    uint64_t Size = VT->getStoreSize();
    Next = GlobalAddrs[G.get()];
    if (Next + Size > Mem.size() / 4)
      return trap("global segment overflow");

    // Write the initializer.
    const std::vector<Constant *> &Init = G->getInitializer();
    if (!Init.empty()) {
      Type *ElemTy = VT;
      uint64_t Stride = VT->getStoreSize();
      if (auto *AT = dyn_cast<ArrayType>(VT)) {
        ElemTy = AT->getElementType();
        Stride = ElemTy->getStoreSize();
      }
      uint64_t Addr = Next;
      for (const Constant *C : Init) {
        Slot V;
        if (const auto *CF = dyn_cast<ConstantFP>(C))
          V.F = CF->getValue();
        else
          V.I = constantValue(C);
        if (!storeTyped(Addr, ElemTy, V))
          return false;
        Addr += Stride;
      }
    }
    Next += Size;
  }

  // Stack after globals, heap in the upper half.
  StackPtr = (Next + 63) & ~63ull;
  HeapPtr = Mem.size() / 2;
  HeapEnd = Mem.size();
  return true;
}

//===----------------------------------------------------------------------===//
// Intrinsics
//===----------------------------------------------------------------------===//

std::string VMRuntime::readCString(uint64_t Addr) {
  std::string Out;
  while (validRange(Addr, 1)) {
    char C = static_cast<char>(Mem[Addr]);
    if (!C)
      return Out;
    Out += C;
    ++Addr;
    if (Out.size() > 1u << 16)
      break;
  }
  trap("unterminated or invalid C string");
  return Out;
}

bool VMRuntime::formatPrintf(const std::string &Fmt,
                             const std::vector<Slot> &Args,
                             const std::vector<const Type *> &ArgTys,
                             std::string &Out) {
  size_t ArgIdx = 0;
  for (size_t I = 0; I < Fmt.size(); ++I) {
    char C = Fmt[I];
    if (C != '%') {
      Out += C;
      continue;
    }
    ++I;
    if (I >= Fmt.size())
      break;
    // Skip width/precision digits and 'l' length modifiers.
    std::string Spec;
    while (I < Fmt.size() && (std::isdigit((unsigned char)Fmt[I]) ||
                              Fmt[I] == '.' || Fmt[I] == '-'))
      Spec += Fmt[I++];
    bool LongMod = false;
    while (I < Fmt.size() && Fmt[I] == 'l') {
      LongMod = true;
      ++I;
    }
    if (I >= Fmt.size())
      break;
    char Conv = Fmt[I];
    if (Conv == '%') {
      Out += '%';
      continue;
    }
    if (ArgIdx >= Args.size())
      return trap("printf: too few arguments");
    Slot A = Args[ArgIdx];
    const Type *ATy =
        ArgIdx < ArgTys.size() ? ArgTys[ArgIdx] : nullptr;
    ++ArgIdx;
    switch (Conv) {
    case 'd':
    case 'i':
      if (LongMod)
        Out += formatStr(("%" + Spec + "lld").c_str(), (long long)A.I);
      else
        Out += formatStr(("%" + Spec + "d").c_str(), (int)A.I);
      break;
    case 'u':
      Out += formatStr(("%" + Spec + "llu").c_str(),
                       (unsigned long long)A.I);
      break;
    case 'x':
      Out += formatStr(("%" + Spec + "llx").c_str(),
                       (unsigned long long)A.I);
      break;
    case 'c':
      Out += static_cast<char>(A.I);
      break;
    case 'f':
    case 'g':
    case 'e': {
      double D = (ATy && ATy->isFloatingPoint()) ? A.F : (double)A.I;
      std::string F(1, Conv);
      Out += formatStr(("%" + Spec + F).c_str(), D);
      break;
    }
    case 's':
      Out += readCString(static_cast<uint64_t>(A.I));
      if (Trapped)
        return false;
      break;
    case 'p':
      Out += formatStr("0x%llx", (unsigned long long)A.I);
      break;
    default:
      return trap(formatStr("printf: unsupported conversion '%%%c'", Conv));
    }
  }
  return true;
}

VMRuntime::Flow VMRuntime::runIntrinsic(const Function *F,
                                        const std::vector<Slot> &Args,
                                        const std::vector<const Type *> &ArgTys) {
  Flow R;
  R.Kind = FlowKind::Return;
  const std::string &Name = F->getName();

  if (Name == "printf") {
    Cost += CostModel::printfCost(Args.size());
    std::string Fmt = readCString(static_cast<uint64_t>(Args[0].I));
    if (Trapped) {
      R.Kind = FlowKind::Trap;
      return R;
    }
    std::vector<Slot> Rest(Args.begin() + 1, Args.end());
    std::vector<const Type *> RestTys(
        ArgTys.size() > 1 ? std::vector<const Type *>(ArgTys.begin() + 1,
                                                      ArgTys.end())
                          : std::vector<const Type *>());
    std::string Out;
    if (!formatPrintf(Fmt, Rest, RestTys, Out)) {
      R.Kind = FlowKind::Trap;
      return R;
    }
    StdoutBuf += Out;
    R.RetVal.I = static_cast<int64_t>(Out.size());
    return R;
  }
  if (Name == "putchar") {
    Cost += CostModel::Putchar;
    StdoutBuf += static_cast<char>(Args[0].I);
    R.RetVal.I = Args[0].I;
    return R;
  }
  if (Name == "puts") {
    Cost += CostModel::Puts;
    StdoutBuf += readCString(static_cast<uint64_t>(Args[0].I));
    StdoutBuf += '\n';
    R.RetVal.I = 0;
    if (Trapped)
      R.Kind = FlowKind::Trap;
    return R;
  }
  if (Name == "strlen") {
    std::string S = readCString(static_cast<uint64_t>(Args[0].I));
    Cost += CostModel::strlenCost(S.size());
    R.RetVal.I = static_cast<int64_t>(S.size());
    if (Trapped)
      R.Kind = FlowKind::Trap;
    return R;
  }
  if (Name == "malloc") {
    Cost += CostModel::Malloc;
    uint64_t Size = (static_cast<uint64_t>(Args[0].I) + 15) & ~15ull;
    if (HeapPtr + Size > HeapEnd) {
      trap("out of heap memory");
      R.Kind = FlowKind::Trap;
      return R;
    }
    R.RetVal.I = static_cast<int64_t>(HeapPtr);
    HeapPtr += Size;
    return R;
  }
  if (Name == "free") {
    Cost += CostModel::Free;
    return R;
  }
  if (Name == "abs") {
    Cost += CostModel::Abs;
    int32_t V = static_cast<int32_t>(Args[0].I);
    R.RetVal.I = V < 0 ? -V : V;
    return R;
  }
  if (Name == "__khaos_throw") {
    Cost += CostModel::Throw;
    R.Kind = FlowKind::Exception;
    R.ExcPayload = Args[0].I;
    return R;
  }
  trap("unknown intrinsic '" + Name + "'");
  R.Kind = FlowKind::Trap;
  return R;
}

//===----------------------------------------------------------------------===//
// Result mapping
//===----------------------------------------------------------------------===//

ExecResult VMRuntime::finishRun(const Flow &R) {
  ExecResult Res;
  Res.Steps = Steps;
  Res.Cost = Cost;
  Res.Stdout = std::move(StdoutBuf);
  switch (R.Kind) {
  case FlowKind::Return:
    Res.Ok = true;
    Res.ExitValue = R.RetVal.I;
    break;
  case FlowKind::Exception:
    Res.Error = formatStr("uncaught exception (payload %lld)",
                          (long long)R.ExcPayload);
    break;
  case FlowKind::LongJmp:
    Res.Error = "longjmp without matching setjmp";
    break;
  default:
    Res.Error = TrapMessage.empty() ? "abnormal termination" : TrapMessage;
    Res.FaultFunction = TrapFunction;
    Res.FaultBlock = TrapBlock;
    break;
  }
  return Res;
}
