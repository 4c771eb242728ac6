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
//===----------------------------------------------------------------------===//

#ifndef KHAOS_OBFUSCATION_KHAOSDRIVER_H
#define KHAOS_OBFUSCATION_KHAOSDRIVER_H

#include "obfuscation/Fission.h"
#include "obfuscation/Fusion.h"
#include "obfuscation/OLLVM.h"
#include "transform/Pass.h"

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
  // The last enumerator bounds the KEV1 mode byte (EvalService.cpp).
  MBA,     ///< Mixed boolean-arithmetic substitution (deep chains).
  StrEnc,  ///< String/constant encryption with a runtime decode stub.
  IndCall, ///< Direct calls routed through a shuffled dispatch table.
  SplitBB, ///< Split-basic-block (post-opt keeps the splits).
};

/// All configurations in evaluation order (figure legends).
const std::vector<ObfuscationMode> &allObfuscationModes();

/// Printable mode name matching the paper's legends.
const char *obfuscationModeName(ObfuscationMode Mode);

/// Result of one obfuscation run.
struct ObfuscationResult {
  FissionStats Fission;
  FusionStats Fusion;
  unsigned BaselineSites = 0; ///< Sub/Bog/Fla transformation count.
  PassReport Report;          ///< Per-pass potency/cost telemetry.
};

/// Driver configuration.
struct KhaosOptions {
  uint64_t Seed = 0xc906;
  OptLevel PostOptLevel = OptLevel::O2; ///< The paper's O2 + LTO baseline.
  bool RunPostOpt = true;
  FissionOptions Fission;
  FusionOptions Fusion;
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
/// where modeUsesFission() is true.
ObfuscationResult finishFissionMode(Module &M, ObfuscationMode Mode,
                                    const KhaosOptions &Opts,
                                    const FissionPhase &Phase);

/// Obfuscates \p M in place with \p Mode and re-optimizes. For fission
/// modes this is exactly runFissionPhase() + finishFissionMode().
ObfuscationResult obfuscateModule(Module &M, ObfuscationMode Mode,
                                  const KhaosOptions &Opts = {});

//===----------------------------------------------------------------------===//
// Pass-bisection hooks. The full pipeline of a mode is a flat, named step
// sequence: the mode's obfuscation primitive(s), any registered extra
// passes, then the post-optimization passes one by one. obfuscateModule()
// is exactly the full-prefix run, so a prefix run reproduces the true
// pipeline up to a step boundary — which is what lets the differential
// fuzzer bisect a behavioural divergence down to the guilty step.
//===----------------------------------------------------------------------===//

/// Names of the steps obfuscateModule(M, Mode, Opts) executes, in order.
/// Primitive steps are named after the transformation ("fission",
/// "fusion", "substitution", ...), registered extra passes appear as
/// "extra:<name>", and post-optimization passes as "post-opt:<pass>#<k>"
/// (k disambiguates repeated pipeline passes, first occurrence = 1).
std::vector<std::string> obfuscationStepNames(ObfuscationMode Mode,
                                              const KhaosOptions &Opts = {});

/// Applies only the first \p NumSteps steps of the mode's pipeline to
/// \p M. With NumSteps >= obfuscationStepNames(...).size() this is
/// obfuscateModule() exactly — one shared code path, so bisection prefixes
/// are true prefixes of the production pipeline.
ObfuscationResult obfuscateModulePrefix(Module &M, ObfuscationMode Mode,
                                        const KhaosOptions &Opts,
                                        size_t NumSteps);

/// Registers an extra obfuscation pass: \p Factory's pass runs for every
/// mode after the primitive step(s) and before post-optimization, as step
/// "extra:<Name>". Process-wide; register before any pipeline or fuzzer
/// use (ArtifactStore keys do not include this state, so registering
/// mid-run would desynchronize cached artifacts). This is the test hook
/// the differential-fuzzer suite uses to plant known divergences.
void registerExtraObfuscationPass(
    const std::string &Name,
    std::function<std::unique_ptr<Pass>()> Factory);

/// Drops every registered extra pass (test teardown).
void clearExtraObfuscationPasses();

} // namespace khaos

#endif // KHAOS_OBFUSCATION_KHAOSDRIVER_H
