//===- transform/Pass.h - Pass manager and pass factories -------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Module pass interface plus the standard optimization pipeline. Khaos
/// relies on the optimizer re-optimizing code after it has been moved
/// across functions — "once the code is restructured among functions, the
/// generated binary code after compilation optimizations can be very
/// different" (paper §3.1).
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_TRANSFORM_PASS_H
#define KHAOS_TRANSFORM_PASS_H

#include <memory>
#include <string>
#include <vector>

namespace khaos {

class Module;

/// A module transformation.
class Pass {
public:
  virtual ~Pass();
  virtual const char *getName() const = 0;
  /// Returns true when the module changed.
  virtual bool run(Module &M) = 0;
};

/// Runs passes in order; optionally verifies after each pass.
class PassManager {
public:
  explicit PassManager(bool VerifyEach = false) : VerifyEach(VerifyEach) {}

  void add(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }

  /// Runs all passes. Returns true when any pass changed the module.
  /// When verification fails the offending pass name is recorded in
  /// \p VerifyError and execution stops.
  bool run(Module &M);

  const std::string &getVerifyError() const { return VerifyError; }

private:
  std::vector<std::unique_ptr<Pass>> Passes;
  bool VerifyEach;
  std::string VerifyError;
};

/// Optimization levels mirroring the paper's compiler settings (the Khaos
/// baseline is O2 with LTO-style whole-program visibility).
enum class OptLevel : uint8_t { O0, O1, O2, O3 };

// Pass factories.
std::unique_ptr<Pass> createSimplifyCFGPass();
/// simplifycfg's shape-preserving subset (constant-branch folds +
/// unreachable-block removal, no threading or chain merging) — for
/// pipelines whose obfuscation full simplification would undo.
std::unique_ptr<Pass> createCFGCleanupPass();
std::unique_ptr<Pass> createConstantFoldPass();
std::unique_ptr<Pass> createDCEPass();
std::unique_ptr<Pass> createLoadForwardingPass();
std::unique_ptr<Pass> createLocalValueNumberingPass();
std::unique_ptr<Pass> createInlinerPass(unsigned InstructionThreshold);
std::unique_ptr<Pass> createLICMPass();

/// The standard pipeline for \p Level as an ordered pass list. The
/// obfuscation driver enumerates it to name each post-optimization pass as
/// its own step (obfuscationStepNames), so KhaosOptions::Steps can stop
/// between any two of them.
std::vector<std::unique_ptr<Pass>> buildOptPassList(OptLevel Level);

/// Populates \p PM with the standard pipeline for \p Level.
void buildOptPipeline(PassManager &PM, OptLevel Level);

/// Convenience: run the standard pipeline over \p M.
void optimizeModule(Module &M, OptLevel Level);

} // namespace khaos

#endif // KHAOS_TRANSFORM_PASS_H
