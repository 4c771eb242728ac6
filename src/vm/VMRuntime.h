//===- vm/VMRuntime.h - Shared execution-engine substrate -------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// State and services shared by every VM execution engine: the byte-addressed
/// memory with its global/stack/heap layout, the function address space,
/// typed loads/stores, VM intrinsics (printf, malloc, ...), step/cost
/// accounting, and trap bookkeeping.
///
/// Engines differ only in how they walk a function body. The reference
/// interpreter (Interpreter.cpp) walks the IR directly; the precompiled
/// interpreter (PrecompiledInterpreter.cpp) runs bytecode produced by
/// Bytecode.h. Both derive from VMRuntime and compute every operation's
/// value with ir/OpSemantics.h, so a program observes identical addresses,
/// values, intrinsic behavior, costs (charged from vm/CostModel.h), and
/// trap messages under either — the property the cross-VM oracle asserts.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_VM_VMRUNTIME_H
#define KHAOS_VM_VMRUNTIME_H

#include "ir/OpSemantics.h"
#include "vm/CostModel.h"
#include "vm/Interpreter.h"

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace khaos {

class BasicBlock;
class Constant;
class Function;
class GlobalVariable;
class Module;
class Type;

/// Address-space layout. Identical across engines by construction: function
/// i gets VMFuncBase + i * VMFuncStride in module order, globals are laid
/// out 8-byte aligned from VMGlobalBase in module order.
constexpr uint64_t VMGlobalBase = 0x1000;
constexpr uint64_t VMFuncBase = 0x70000000;
constexpr uint64_t VMFuncStride = 16;
/// Bytes of VM memory: globals and stack in the lower half, heap above.
constexpr uint64_t VMMemoryBytes = 16u << 20;
/// Frames deeper than this trap with "call depth limit exceeded".
constexpr unsigned VMMaxCallDepth = 4000;

/// Assigns addresses to every function and global of \p M. Pure layout —
/// depends only on the module, not on memory size (overflow is checked when
/// an engine materializes the memory image in layoutGlobals).
void computeAddressMap(const Module &M,
                       std::map<const Function *, uint64_t> &FuncAddrs,
                       std::map<const GlobalVariable *, uint64_t> &GlobalAddrs);

/// Base class holding the machine state of one program execution.
class VMRuntime {
public:
  /// One 64-bit machine slot; typed access is chosen by the IR type.
  using Slot = OpValue;

  /// How a nested execution finished.
  enum class FlowKind : uint8_t { Normal, Return, Exception, LongJmp, Trap };

  struct Flow {
    FlowKind Kind = FlowKind::Normal;
    Slot RetVal{0};
    int64_t ExcPayload = 0;
    uint64_t JmpToken = 0;
    int64_t JmpValue = 0;
  };

protected:
  VMRuntime(const Module &M, const ExecOptions &Opts) : M(M), Opts(Opts) {}
  virtual ~VMRuntime() = default;

  /// Where execution currently is, for trap attribution. Engines report
  /// their cursor; empty \p Fn means "not executing a function" (e.g. a
  /// trap during global layout).
  virtual void currentLocation(std::string &Fn, std::string &Blk) const = 0;

  // -- Memory ------------------------------------------------------------
  bool validRange(uint64_t Addr, uint64_t Size) const {
    return Addr >= VMGlobalBase && Addr + Size <= Mem.size();
  }
  bool loadBytes(uint64_t Addr, void *Out, uint64_t Size);
  bool storeBytes(uint64_t Addr, const void *In, uint64_t Size);
  /// Typed access keyed by TypeKind (engines that resolved types at decode
  /// time pass the kind directly).
  bool loadKinded(uint64_t Addr, TypeKind K, Slot &Out);
  bool storeKinded(uint64_t Addr, TypeKind K, Slot V);
  bool loadTyped(uint64_t Addr, const Type *Ty, Slot &Out);
  bool storeTyped(uint64_t Addr, const Type *Ty, Slot V);

  /// Records the first trap with its location suffix; always returns false
  /// so call sites can `return trap(...)`.
  bool trap(const std::string &Msg);

  // -- Setup -------------------------------------------------------------
  /// Materializes the memory image: function/global addresses, initializers,
  /// stack and heap bases. False on trap (overflow / bad initializer).
  bool layoutGlobals();
  int64_t constantValue(const Constant *C);

  // -- Intrinsics --------------------------------------------------------
  Flow runIntrinsic(const Function *F, const std::vector<Slot> &Args,
                    const std::vector<const Type *> &ArgTys);
  std::string readCString(uint64_t Addr);
  bool formatPrintf(const std::string &Fmt, const std::vector<Slot> &Args,
                    const std::vector<const Type *> &ArgTys,
                    std::string &Out);

  // -- Accounting --------------------------------------------------------
  bool charge(uint64_t C) {
    Cost += C;
    ++Steps;
    if (Steps > Opts.MaxSteps)
      return trap("step limit exceeded");
    return true;
  }

  /// Maps a finished top-level Flow to the ExecResult callers see.
  ExecResult finishRun(const Flow &R);

  const Module &M;
  const ExecOptions &Opts;
  std::vector<uint8_t> Mem;
  uint64_t StackPtr = 0;
  uint64_t HeapPtr = 0;
  uint64_t HeapEnd = 0;

  std::map<const GlobalVariable *, uint64_t> GlobalAddrs;
  std::map<const Function *, uint64_t> FuncAddrs;
  std::map<uint64_t, const Function *> AddrFuncs;

  std::string StdoutBuf;
  uint64_t Steps = 0;
  uint64_t Cost = 0;
  unsigned CallDepth = 0;
  uint64_t NextJmpToken = 1;
  bool Trapped = false;
  std::string TrapMessage;
  std::string TrapFunction;
  std::string TrapBlock;
};

} // namespace khaos

#endif // KHAOS_VM_VMRUNTIME_H
