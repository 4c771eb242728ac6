//===- obfuscation/KhaosDriver.h - Obfuscation mode driver ------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies one of the paper's obfuscation configurations to a module and
/// then re-optimizes it (Khaos schedules fission before fusion as
/// middle-end passes and compiles at O2+LTO; §4). The driver also gathers
/// the Table 2 statistics.
///
/// Each mode runs as one flat sequence of named steps. KhaosOptions::Steps
/// stops it after a prefix and KhaosOptions::ExtraPass adds one step, so
/// the differential fuzzer can bisect a divergence and plant a bug through
/// the production code path.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_OBFUSCATION_KHAOSDRIVER_H
#define KHAOS_OBFUSCATION_KHAOSDRIVER_H

#include "obfuscation/Fission.h"
#include "obfuscation/Fusion.h"
#include "obfuscation/OLLVM.h"
#include "transform/Pass.h"

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace khaos {

class Module;

/// The obfuscation configurations evaluated in the paper.
enum class ObfuscationMode : uint8_t {
  None,
  Sub,     ///< O-LLVM instruction substitution (100%).
  Bog,     ///< O-LLVM bogus control flow (100%).
  Fla,     ///< O-LLVM control-flow flattening (100%).
  Fla10,   ///< O-LLVM flattening at 10% (the paper's Fla-10).
  Fission, ///< Khaos fission only.
  Fusion,  ///< Khaos fusion only.
  FuFiSep, ///< Fission, then fuse only the generated sepFuncs.
  FuFiOri, ///< Fission, then fuse only fission-unprocessed oriFuncs.
  FuFiAll, ///< Fission, then fuse sepFuncs + unprocessed oriFuncs.
  // Arms-race roster additions (post-paper; real obfuscator staples).
  // Appended so existing modes keep their serialized ArtifactKey values.
  // The last enumerator bounds the KEV1 mode byte (EvalService.cpp) and
  // the enumerators parseObfuscationModeName() tries.
  MBA,     ///< Mixed boolean-arithmetic substitution (deep chains).
  StrEnc,  ///< String/constant encryption with a runtime decode stub.
  IndCall, ///< Direct calls routed through a shuffled dispatch table.
  SplitBB, ///< Split-basic-block (post-opt keeps the splits).
};

/// All configurations in evaluation order (figure legends).
const std::vector<ObfuscationMode> &allObfuscationModes();

/// Printable mode name matching the paper's legends.
const char *obfuscationModeName(ObfuscationMode Mode);

/// Parses any mode by its obfuscationModeName() spelling, ignoring case
/// and the '.', '-' and '_' separators ("FuFi.all", "fufi_all" and
/// "fla10" all parse).
bool parseObfuscationModeName(const std::string &Name, ObfuscationMode &Out);

/// Result of one obfuscation run.
struct ObfuscationResult {
  FissionStats Fission;
  FusionStats Fusion;
  unsigned BaselineSites = 0; ///< O-LLVM-style pass's transformation count.
  PassReport Report;          ///< Per-pass potency/cost telemetry.
};

/// Driver configuration.
struct KhaosOptions {
  uint64_t Seed = 0xc906;
  OptLevel PostOptLevel = OptLevel::O2; ///< The paper's O2 + LTO baseline.
  bool RunPostOpt = true;
  FissionOptions Fission;
  FusionOptions Fusion;
  /// Run only the first Steps steps of the mode's pipeline (see
  /// obfuscationStepNames); SIZE_MAX runs all of them. The differential
  /// fuzzer's pass bisection probes prefixes through this.
  size_t Steps = SIZE_MAX;
  /// When set, the pass it makes runs for every mode after the primitive
  /// step(s) and before post-optimization, as step "extra:<getName()>".
  /// The differential fuzzer's tests plant a known bug through it.
  std::function<std::unique_ptr<Pass>()> ExtraPass;
};

/// True for the modes whose pipeline starts with the fission pass
/// (Fission and the three FuFi configurations). These share the same
/// fission prefix: fission takes no seed, so its output is a pure function
/// of the input module and the FissionOptions — which is what lets the
/// evaluation pipeline compute the prefix once per workload and clone it.
bool modeUsesFission(ObfuscationMode Mode);

/// Output of the shared fission prefix, beyond the transformed module
/// itself: everything the FuFi fusion step needs to pick its candidate set.
struct FissionPhase {
  FissionStats Stats;
  /// Names of the created sepFuncs (the FuFi.sep candidate set).
  std::vector<std::string> SepFuncs;
  /// Names of functions that lost a region (excluded from FuFi.ori).
  std::set<std::string> ProcessedFuncs;
};

/// Runs the fission prefix on \p M (no post-optimization).
FissionPhase runFissionPhase(Module &M, const FissionOptions &Opts = {});

/// Completes \p Mode on a module that already carries \p Phase's fission
/// output: applies the mode's fusion step (restricted to the candidate set
/// the mode prescribes) and the post-optimization. Only valid for modes
/// where modeUsesFission() is true; the fission step counts against
/// Opts.Steps, which must therefore be at least 1.
ObfuscationResult finishFissionMode(Module &M, ObfuscationMode Mode,
                                    const KhaosOptions &Opts,
                                    const FissionPhase &Phase);

/// Obfuscates \p M in place with \p Mode and re-optimizes, running the
/// first Opts.Steps steps. For fission modes the full run is exactly
/// runFissionPhase() + finishFissionMode().
ObfuscationResult obfuscateModule(Module &M, ObfuscationMode Mode,
                                  const KhaosOptions &Opts = {});

/// Names of every step of (Mode, Opts)'s pipeline, in order. The pipeline
/// is one flat step sequence: the mode's obfuscation primitive(s)
/// ("fission", "fusion", "substitution", ...), Opts.ExtraPass as
/// "extra:<name>", then the post-optimization passes one by one as
/// "post-opt:<pass>#<k>" (k disambiguates repeated pipeline passes, first
/// occurrence = 1). obfuscateModule and finishFissionMode run a prefix of
/// it, so the differential fuzzer can bisect a behavioural divergence down
/// to the guilty step.
std::vector<std::string> obfuscationStepNames(ObfuscationMode Mode,
                                              const KhaosOptions &Opts = {});

} // namespace khaos

#endif // KHAOS_OBFUSCATION_KHAOSDRIVER_H
