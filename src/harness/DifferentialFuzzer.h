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
/// step sequence (obfuscationStepNames, probed a prefix at a time through
/// KhaosOptions::Steps) that names the guilty pass — emitting a
/// self-contained repro file that replays with `khaos-fuzz --replay`.
/// The matrix, the shrinker, the bisection and replay all reach their
/// verdicts through the same two members (baselineVerdict, cellVerdict)
/// over EvalPipeline, so a repro takes the route of the verdict it
/// reproduces.
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

class EvalPipeline;
struct Workload;

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

/// What replaying one repro file found.
struct ReplayResult {
  enum class Status : uint8_t {
    Replayed,       ///< The probe ran; Kind says whether the bug reproduces.
    Malformed,      ///< Bad magic, or a header field missing or unparsable.
    BaselineFailed, ///< The embedded source's baseline fails to build or run.
  };
  Status State = Status::Replayed;
  DivergenceKind Kind = DivergenceKind::None; ///< None = no longer reproduces.
  std::string Message; ///< Divergence detail, or why the repro did not run.
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
    uint64_t Seed = 0xc906; ///< EvalScheduler::Config's default seed.
    unsigned Budget = 100; ///< Number of generated programs.
    unsigned Threads = 0;  ///< Worker pool size (0 = hardware).
    /// Modes to differentiate against the baseline; empty = all.
    std::vector<ObfuscationMode> Modes;
    bool Shrink = true; ///< Minimize + bisect each divergence.
    /// When set, each divergence's repro file is written here.
    std::string ReproDir;
    /// ArtifactStore LRU cap per batch (0 = unbounded); soaks stay
    /// memory-bounded.
    uint64_t StoreMaxBytes = 256u << 20;
    /// Cases per scheduler batch (matrix granularity; result order —
    /// and thus output — is independent of Threads).
    static constexpr unsigned CasesPerBatch = 32;
    bool Verbose = true; ///< false = only divergence + summary lines.
    /// VM engine executing every baseline and obfuscated run (--vm). The
    /// checks call it directly; no pipeline stage runs a program here.
    VMEngine Engine = VMEngine::Precompiled;
    /// --cross-vm: run every check on BOTH engines and report engine
    /// disagreement (on any ExecResult field, Steps and trap context
    /// included) as DivergenceKind::EngineMismatch — the fuzzer doubles
    /// as an adversarial A/B search over the precompiled engine.
    bool CrossVM = false;
    /// Verdict stream (defaults to std::cout). Stderr-style telemetry is
    /// never written here, so the stream is byte-stable across runs.
    std::ostream *Out = nullptr;
    /// KhaosOptions::ExtraPass of every obfuscated run: the matrix, the
    /// shrinker and replay. The fuzzer's tests plant a known bug through
    /// it; empty fuzzes the real pipeline.
    std::function<std::unique_ptr<Pass>()> ExtraPass;
  };

  explicit DifferentialFuzzer(Config C) : Cfg(std::move(C)) {}

  /// Runs the whole budget. Deterministic: bit-identical report, verdict
  /// lines and repro files at any Config::Threads.
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

  /// Minimizes a diverging (spec, mode, seed) under this fuzzer's Config:
  /// greedy spec reduction, greedy function dropping, then pass bisection.
  /// Deterministic; spends at most 400 probes (compile+run pairs) before
  /// the bisection.
  ShrinkResult shrink(const ProgramSpec &Spec, ObfuscationMode Mode,
                      uint64_t ObfSeed) const;

  /// Formats \p D as a self-contained repro file (header + MiniC source).
  static std::string formatRepro(const FuzzDivergence &D);

  /// Replays a repro file: parses the header (name, mode and obf-seed are
  /// required) and source, and re-probes under this fuzzer's Config.
  /// Repro files record the engine that produced them, but replay
  /// deliberately takes the engine from Config, so old repros replay
  /// against either engine via khaos-fuzz --replay --vm=....
  ReplayResult replayRepro(const std::string &ReproText) const;

private:
  struct BaselineVerdict;
  struct CellVerdict;

  /// Builds \p W's baseline on \p Pipe and runs it under BaselineMaxSteps
  /// (on both engines with Config::CrossVM).
  BaselineVerdict baselineVerdict(EvalPipeline &Pipe, const Workload &W) const;

  /// Obfuscates \p W with the first \p Steps steps of \p Mode's pipeline
  /// (seeded \p Seed, plus Config::ExtraPass) on \p Pipe, runs it under
  /// the obfuscated step budget and classifies it against \p Base.
  CellVerdict cellVerdict(EvalPipeline &Pipe, const Workload &W,
                          const BaselineVerdict &Base, ObfuscationMode Mode,
                          uint64_t Seed, size_t Steps) const;

  Config Cfg;
};

} // namespace khaos

#endif // KHAOS_HARNESS_DIFFERENTIALFUZZER_H
