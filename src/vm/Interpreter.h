//===- vm/Interpreter.h - KIR interpreter -----------------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct interpreter over KIR with a byte-addressed memory, a function
/// address space with 16-byte alignment (so fusion's tagged pointers behave
/// exactly as on hardware), VM intrinsics (printf, malloc, ...), simplified
/// C++ EH (invoke/landingpad/__khaos_throw) and setjmp/longjmp.
///
/// The interpreter serves two roles in the reproduction:
///  1. semantic oracle — obfuscated programs must produce identical stdout
///     and exit values;
///  2. performance substrate — dynamic cost under the table in
///     vm/CostModel.h stands in for the paper's wall-clock overhead
///     measurements (Figs. 6 and 7).
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_VM_INTERPRETER_H
#define KHAOS_VM_INTERPRETER_H

#include <cstdint>
#include <string>

namespace khaos {

class Module;

/// Which execution engine runs the program. Both engines produce identical
/// ExecResults (ExitValue, Stdout, Steps, Cost, trap message and fault
/// context) for any verified module; the precompiled engine is the fast
/// default, the reference engine is the semantic oracle the cross-VM checks
/// compare against.
enum class VMEngine : uint8_t {
  Reference,   ///< Direct IR walker (Interpreter.cpp).
  Precompiled, ///< Bytecode + direct-threaded dispatch (Bytecode.h).
};

/// "reference" / "precompiled".
const char *vmEngineName(VMEngine E);
/// Parses a --vm flag value; false if \p Name is not an engine name.
bool parseVMEngineName(const std::string &Name, VMEngine &Out);

/// Interpreter knobs. What a run costs is not one: every engine charges
/// the constant table in vm/CostModel.h.
struct ExecOptions {
  uint64_t MaxSteps = 200'000'000; ///< Abort runaway programs.
  VMEngine Engine = VMEngine::Precompiled;
};

/// Result of one program execution.
struct ExecResult {
  bool Ok = false;
  /// Trap description when !Ok. Traps raised while executing a function
  /// carry their location as a "(in <function>:<block>)" suffix — the
  /// differential fuzzer's trap-divergence repros need to be actionable
  /// without re-running under a debugger.
  std::string Error;
  std::string FaultFunction; ///< Function executing at the trap ("" = none).
  std::string FaultBlock;    ///< Basic block executing at the trap.
  int64_t ExitValue = 0; ///< main's return value.
  std::string Stdout;    ///< Captured printf/puts/putchar output.
  uint64_t Steps = 0;    ///< Dynamic instruction count.
  uint64_t Cost = 0;     ///< Dynamic cost under the cost model.

  /// Observational equality: every field, so a field added later is
  /// compared by every engine and cache-tier check.
  bool operator==(const ExecResult &) const = default;
};

/// Executes @main() of \p M (which must take no parameters) under
/// Opts.Engine. With VMEngine::Precompiled the module is lowered to
/// bytecode first (use precompileModule + runPrecompiled from Bytecode.h /
/// PrecompiledInterpreter.h to amortize that over repeated runs).
ExecResult runModule(const Module &M, const ExecOptions &Opts = {});

} // namespace khaos

#endif // KHAOS_VM_INTERPRETER_H
