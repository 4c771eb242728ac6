//===- vm/CostModel.h - What a run costs ------------------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of what a run costs, and of the overhead figure read
/// from two runs. x86-64 SysV-flavoured: the paper measures wall-clock
/// overhead on hardware; we measure dynamic cost in the VM with weights
/// that reproduce the *mechanisms* of Khaos's overhead: call/return
/// overhead, register vs stack argument passing (first six arguments ride
/// in registers), division latency, and expensive unwinding.
///
/// Both VM engines charge these constants, and the intrinsics charge the
/// costs below, so a run's Cost is the same number under either engine.
/// The figures (fig6, fig7, the ablations) read a pair of runs through
/// runOverheadPercent; BinTuner applies its spill factor to a cost and
/// then uses the same formula.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_VM_COSTMODEL_H
#define KHAOS_VM_COSTMODEL_H

#include "ir/Instruction.h"
#include "vm/Interpreter.h"

#include <cstdint>

namespace khaos {

/// The cost table, in abstract cycles. Nothing instantiates it.
struct CostModel {
  /// ALU op, compare, branch, cast, GEP, select, landingpad, ret.
  static constexpr uint64_t Simple = 1;
  static constexpr uint64_t FPOp = 2;    ///< FP add/sub/mul.
  static constexpr uint64_t Memory = 2;  ///< Load/store.
  static constexpr uint64_t IntDiv = 12; ///< sdiv/srem.
  static constexpr uint64_t FPDiv = 8;   ///< fdiv.
  static constexpr uint64_t Alloca = 1;
  static constexpr uint64_t Switch = 2;
  static constexpr uint64_t Throw = 50;  ///< Unwinder invocation.
  static constexpr uint64_t SetJmp = 10;
  static constexpr uint64_t LongJmp = 30;

  /// A binop \p Op: the FP and division weights above, else Simple.
  static constexpr uint64_t binOpCost(BinOp Op) {
    switch (Op) {
    case BinOp::SDiv:
    case BinOp::SRem:
      return IntDiv;
    case BinOp::FAdd:
    case BinOp::FSub:
    case BinOp::FMul:
      return FPOp;
    case BinOp::FDiv:
      return FPDiv;
    default:
      return Simple;
    }
  }

  /// Calls (see callCost): call + ret + frame setup, the indirect-call
  /// penalty, and one StackArg per argument past the RegisterArgs that
  /// SysV passes in integer registers.
  static constexpr uint64_t CallBase = 4;
  static constexpr uint64_t IndirectExtra = 2;
  static constexpr uint64_t StackArg = 1;
  static constexpr uint64_t RegisterArgs = 6;

  /// Intrinsics (VMRuntime::runIntrinsic); __khaos_throw costs Throw.
  static constexpr uint64_t Puts = 10;
  static constexpr uint64_t Malloc = 10;
  static constexpr uint64_t Putchar = 3;
  static constexpr uint64_t Free = 2; ///< Bump allocator: no-op.
  static constexpr uint64_t Abs = 2;
  /// printf with \p NumArgs arguments, the format string included.
  static constexpr uint64_t printfCost(uint64_t NumArgs) {
    return 20 + 2 * NumArgs;
  }
  /// strlen of a \p Len-byte string.
  static constexpr uint64_t strlenCost(uint64_t Len) { return 2 + Len / 4; }

  /// A call or invoke of \p NumArgs arguments, charged before the callee
  /// runs (setjmp and longjmp then add SetJmp or LongJmp, an intrinsic
  /// its own cost).
  static constexpr uint64_t callCost(uint64_t NumArgs, bool Indirect) {
    uint64_t C = CallBase;
    if (Indirect)
      C += IndirectExtra;
    if (NumArgs > RegisterArgs)
      C += (NumArgs - RegisterArgs) * StackArg;
    return C;
  }

  /// BinTuner: -O0-style spill codegen costs extra beyond the IR-level
  /// cost; a tuned build that spills everything has its cost scaled by
  /// this factor.
  static constexpr double SpillFactor = 1.25;
};

/// Percent extra cost of \p ObfCost over \p BaseCost, computed as
/// (obf - base) / base * 100 in that floating-point order.
inline double costOverheadPercent(double ObfCost, double BaseCost) {
  return (ObfCost - BaseCost) / BaseCost * 100.0;
}

/// The overhead rule: writes \p Obf's cost over \p Base's, in percent, to
/// \p Out. Behavioural equality is part of the experiment's validity, so a
/// pair is refused (false, \p Out untouched) unless both runs finished
/// with the same stdout and the same exit value; a zero-cost baseline is
/// refused too.
inline bool runOverheadPercent(const ExecResult &Base, const ExecResult &Obf,
                               double &Out) {
  if (!Base.Ok || !Obf.Ok || Obf.Stdout != Base.Stdout ||
      Obf.ExitValue != Base.ExitValue || Base.Cost == 0)
    return false;
  Out = costOverheadPercent(static_cast<double>(Obf.Cost),
                            static_cast<double>(Base.Cost));
  return true;
}

} // namespace khaos

#endif // KHAOS_VM_COSTMODEL_H
