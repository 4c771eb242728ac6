//===- harness/DifferentialFuzzer.h - Obfuscation correctness fuzzer -*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzzing of the obfuscation pipeline: the whole Khaos claim
/// rests on obfuscated binaries behaving identically to their baselines,
/// so this subsystem adversarially searches the obfuscation space for
/// semantic divergences instead of trusting the fixed T-I/T-II/T-III
/// suites. A seeded spec-mutator samples randomized MiniC programs
/// (sweeping function count, FP/recursion mix, indirect calls, EH, setjmp
/// and loop depth into corners the suites never hit), pushes each program
/// through every ObfuscationMode on the EvalPipeline/EvalScheduler
/// (baseline artifacts cached per program, cells fanned over the worker
/// pool), and asserts ExitValue/Stdout/termination equivalence on the VM.
///
/// On a divergence the fuzzer minimizes automatically: a greedy spec-level
/// shrinker (fewer functions, fewer iterations, features off), a greedy
/// source-level function dropper, then a bisection over the driver's named
/// step sequence (obfuscationStepNames / obfuscateModulePrefix) that names
/// the guilty pass — emitting a self-contained repro file that replays
/// with `khaos-fuzz --replay`.
///
/// Everything is deterministic end-to-end: a given (seed, budget, modes)
/// produces bit-identical verdict lines and repro files at any thread
/// count and across reruns.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_HARNESS_DIFFERENTIALFUZZER_H
#define KHAOS_HARNESS_DIFFERENTIALFUZZER_H

#include "obfuscation/KhaosDriver.h"
#include "vm/Interpreter.h"
#include "workloads/SyntheticProgram.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace khaos {

/// How one (program, mode) cell's behaviour differed from its baseline.
enum class DivergenceKind : uint8_t {
  None,         ///< Behaviour identical.
  CompileError, ///< Obfuscated module failed to build or verify.
  Trap,         ///< Obfuscated run trapped while the baseline ran clean.
  Timeout,      ///< Obfuscated run blew the step budget (termination bug
                ///< or a catastrophic, far-beyond-paper overhead).
  ExitValue,    ///< main() returned a different value.
  StdoutBytes,  ///< Captured stdout differs.
  /// Cross-VM mode only: the two execution engines disagreed with each
  /// other (on the baseline or the obfuscated run) — a VM bug, not an
  /// obfuscation bug, and the A/B oracle the precompiled engine is
  /// continuously validated against.
  EngineMismatch,
};

/// Printable kind name ("none", "compile", "trap", "timeout",
/// "exit-value", "stdout", "engine-mismatch").
const char *divergenceKindName(DivergenceKind K);

/// Result of minimizing one divergence.
struct ShrinkResult {
  ProgramSpec Spec;     ///< Minimized generator spec.
  std::string Source;   ///< Minimized source (after function dropping).
  DivergenceKind Kind = DivergenceKind::None; ///< Kind at the minimum.
  std::string Detail;   ///< Expected-vs-got line at the minimum.
  std::string GuiltyStep;     ///< Step named by the pass bisection.
  size_t GuiltyStepIndex = 0; ///< 1-based index into the step sequence.
  size_t StepCount = 0;       ///< Total steps of the mode's pipeline.
  unsigned SpecReductions = 0;   ///< Accepted spec-level shrinks.
  unsigned DroppedFunctions = 0; ///< Accepted source-level drops.
  unsigned Probes = 0;           ///< Divergence probes spent in total.
};

/// One confirmed divergence with its minimized, replayable repro.
struct FuzzDivergence {
  unsigned CaseIndex = 0;
  ProgramSpec Spec; ///< Spec as sampled (pre-shrink).
  ObfuscationMode Mode = ObfuscationMode::None;
  uint64_t ObfSeed = 0; ///< deriveCellSeed(seed, name, mode) of the cell.
  VMEngine Engine = VMEngine::Precompiled; ///< Engine that found it.
  bool CrossVM = false;                    ///< Found under --cross-vm.
  DivergenceKind Kind = DivergenceKind::None; ///< Kind as found.
  std::string Detail;    ///< Expected-vs-got one-liner as found.
  ShrinkResult Shrunk;   ///< Minimized state (== original when !Shrink).
  std::string ReproText; ///< Self-contained repro file contents.
  std::string ReproName; ///< Deterministic repro file name.
};

/// Aggregate outcome of one fuzzing run.
struct FuzzReport {
  unsigned Cases = 0;          ///< Programs generated.
  unsigned Cells = 0;          ///< (case × mode) cells executed.
  unsigned Passes = 0;         ///< Cells with identical behaviour.
  unsigned BaselineErrors = 0; ///< Cells whose baseline itself failed.
  std::vector<FuzzDivergence> Divergences;
};

/// The differential obfuscation-correctness fuzzer.
class DifferentialFuzzer {
public:
  struct Config {
    uint64_t Seed = 0xf422;
    unsigned Budget = 100; ///< Number of generated programs.
    unsigned Threads = 0;  ///< Worker pool size (0 = hardware).
    /// Modes to differentiate against the baseline; empty = all.
    std::vector<ObfuscationMode> Modes;
    bool Shrink = true; ///< Minimize + bisect each divergence.
    /// Cap on divergence probes (compile+run pairs) spent per shrink.
    unsigned MaxShrinkProbes = 400;
    /// When set, each divergence's repro file is written here.
    std::string ReproDir;
    /// ArtifactStore LRU cap per batch; soaks stay memory-bounded.
    uint64_t StoreMaxBytes = 256u << 20;
    /// Cases per scheduler batch (matrix granularity; result order —
    /// and thus output — is independent of this and of Threads).
    unsigned CasesPerBatch = 32;
    bool Verbose = true; ///< false = only divergence + summary lines.
    /// VM engine executing every baseline and obfuscated run (--vm).
    VMEngine Engine = VMEngine::Precompiled;
    /// --cross-vm: run every check on BOTH engines and report engine
    /// disagreement (on any ExecResult field, Steps and trap context
    /// included) as DivergenceKind::EngineMismatch — the fuzzer doubles
    /// as an adversarial A/B search over the precompiled engine.
    bool CrossVM = false;
    /// Verdict stream (defaults to std::cout). Stderr-style telemetry is
    /// never written here, so the stream is byte-stable across runs.
    std::ostream *Out = nullptr;
  };

  explicit DifferentialFuzzer(Config C) : Cfg(std::move(C)) {}

  /// Runs the whole budget. Deterministic: bit-identical report, verdict
  /// lines and repro files at any Config::Threads / CasesPerBatch.
  FuzzReport run();

  //===--------------------------------------------------------------------===//
  // Deterministic building blocks (exposed for tests, replay, tools).
  //===--------------------------------------------------------------------===//

  /// Termination policy. The baseline runs under a hard step cap (a spec
  /// whose baseline is hotter is reported as a baseline error — it would
  /// probe nothing but wall-clock). The obfuscated run gets
  /// ObfStepsMultiplier × the baseline's actual step count (floored at
  /// MinObfSteps so constant obfuscation overhead never trips on tiny
  /// programs): far above any legitimate overhead in the paper, so
  /// exceeding it is reported as a "timeout" divergence — a
  /// non-termination bug or a catastrophic slowdown.
  static constexpr uint64_t BaselineMaxSteps = 8'000'000;
  static constexpr uint64_t ObfStepsMultiplier = 16;
  static constexpr uint64_t MinObfSteps = 1'000'000;

  /// The seeded spec-mutator: case \p Index of a run seeded \p BaseSeed.
  /// Sweeps shape knobs well past the fixed suites (loop depth to 4,
  /// FP-heavy, EH × setjmp × indirect-call combinations, 3..32 functions).
  static ProgramSpec sampleSpec(uint64_t BaseSeed, unsigned Index);

  /// Compiles + runs baseline and obfuscated variants of \p Source and
  /// classifies the difference. Returns false when the baseline itself
  /// failed (compile error or trap) — such probes say nothing about the
  /// obfuscator. \p PrefixSteps limits the obfuscation pipeline to its
  /// first N steps (SIZE_MAX = full pipeline; the bisection's probe).
  /// Runs execute under \p Engine; with \p CrossVM both engines run and
  /// any disagreement is reported as EngineMismatch (checked before the
  /// baseline-vs-obfuscated classification, on baseline and obfuscated
  /// runs alike).
  static bool probeSource(const std::string &Source, const std::string &Name,
                          ObfuscationMode Mode, uint64_t ObfSeed,
                          size_t PrefixSteps, DivergenceKind &KindOut,
                          std::string *DetailOut = nullptr,
                          VMEngine Engine = VMEngine::Precompiled,
                          bool CrossVM = false);

  /// Minimizes a diverging (spec, mode, seed): greedy spec reduction,
  /// greedy function dropping, then pass bisection. Deterministic.
  /// \p Engine / \p CrossVM must match the configuration that found the
  /// divergence, or the shrinker probes a different predicate.
  static ShrinkResult shrink(const ProgramSpec &Spec, ObfuscationMode Mode,
                             uint64_t ObfSeed, unsigned MaxProbes,
                             VMEngine Engine = VMEngine::Precompiled,
                             bool CrossVM = false);

  /// Formats \p D as a self-contained repro file (header + MiniC source).
  static std::string formatRepro(const FuzzDivergence &D);

  /// Replays a repro file: parses the header + source and re-probes
  /// under \p Engine (with \p CrossVM, on both engines). Repro files
  /// record the engine that produced them, but replay deliberately takes
  /// the engine from the caller — old repros are replayable against
  /// either engine via khaos-fuzz --replay --vm=....
  /// Returns the observed kind (None = the bug no longer reproduces);
  /// on a malformed repro or failing baseline sets \p Error and returns
  /// None.
  static DivergenceKind replayRepro(const std::string &ReproText,
                                    std::string &Error,
                                    VMEngine Engine = VMEngine::Precompiled,
                                    bool CrossVM = false);

private:
  Config Cfg;
};

} // namespace khaos

#endif // KHAOS_HARNESS_DIFFERENTIALFUZZER_H
