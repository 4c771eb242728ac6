//===- vm/PrecompiledInterpreter.h - Direct-threaded engine -----*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes bytecode produced by Bytecode.h with direct-threaded
/// (computed-goto) dispatch, the labels-as-values extension GCC and Clang
/// share.
///
/// The engine shares all machine state with the reference interpreter
/// through VMRuntime, so ExitValue, Stdout, Steps, Cost, and trap messages
/// (including "(in <fn>:<block>)" fault context) are byte-identical — the
/// invariant the cross-VM oracle enforces.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_VM_PRECOMPILEDINTERPRETER_H
#define KHAOS_VM_PRECOMPILEDINTERPRETER_H

#include "vm/Bytecode.h"
#include "vm/Interpreter.h"

namespace khaos {

/// Executes @main() of a precompiled module. \p BM is read-only here, so
/// one BytecodeModule may serve concurrent runs (and the evaluation
/// pipeline caches it as an artifact).
ExecResult runPrecompiled(const BytecodeModule &BM,
                          const ExecOptions &Opts = {});

} // namespace khaos

#endif // KHAOS_VM_PRECOMPILEDINTERPRETER_H
