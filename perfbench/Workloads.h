//===- perfbench/Workloads.h - The benchmark's three workloads --*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads (diff, overhead, fuzz). Each one has four
/// ways to run the same cells:
///
///  * round()      — the library's own batch front-end, untraced. Timed
///                   runs repeat rounds until the window closes.
///  * stagePass()  — the same cells through EvalScheduler::forEachCell /
///                   forEachCellTask, with a benchmark callback that calls
///                   the EvalPipeline stage entry points inside spans.
///  * layerPass()  — the same cells with no ArtifactStore: the benchmark
///                   calls each layer's public entry point itself, in the
///                   pipeline's composition order, and builds each artifact
///                   once. Untraced it is the correctness replay.
///
/// Every pass returns its per-cell results as canonical text lines in
/// matrix order, so two passes agree exactly when their lines are equal.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_PERFBENCH_WORKLOADS_H
#define KHAOS_PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include "harness/ArtifactStore.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using CellLines = std::vector<std::string>;

/// Outcome of one untraced round.
struct RoundResult {
  CellLines Lines;
  uint64_t Cells = 0;     ///< (workload × mode) cells finished.
  uint64_t Attempted = 0; ///< Denominator of the failure fraction.
  uint64_t Failed = 0;
  uint64_t BaselineErrors = 0; ///< fuzz: cells rejected by policy.
  uint64_t Divergences = 0;    ///< fuzz: divergent cells.
  /// Store counters of the round's scheduler, when the round owns one.
  bool HasStore = false;
  khaos::ArtifactStore::Snapshot Store;
};

/// Work counters of a layer pass (the span times come from the tracer).
struct LayerStats {
  std::atomic<uint64_t> CompileCalls{0};
  std::atomic<uint64_t> CloneCalls{0};
  std::atomic<uint64_t> VerifyCalls{0};
  std::atomic<uint64_t> BaselineInsts{0}; ///< IR after baseline O2.
  /// IR after obfuscation, and the baseline IR of the same cells.
  std::atomic<uint64_t> ObfInsts{0};
  std::atomic<uint64_t> ObfBaseInsts{0};
  std::atomic<uint64_t> MInsts{0}; ///< Machine instructions lowered.
  std::atomic<uint64_t> VMSteps{0};
};

class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;

  /// Builds the inputs and everything the checks need. Idempotent: the
  /// timed run calls it several times to take the median.
  virtual void setup() = 0;

  /// One untraced batch. Round 0 is the one the passes replay.
  virtual RoundResult round(unsigned Index) = 0;

  /// True when every round runs the same cells (and must give the same
  /// lines); false when each round draws new inputs.
  virtual bool roundsRepeat() const = 0;

  virtual CellLines stagePass(Tracer &T) = 0;

  /// \p T may be null (untraced replay). \p Problems collects failed
  /// independent checks (oracle disagreements), one line each.
  virtual CellLines layerPass(Tracer *T, unsigned Threads, LayerStats &S,
                              std::vector<std::string> &Problems) = 0;

  /// Store counters of the stage pass, for workloads whose rounds own no
  /// scheduler the benchmark can reach.
  virtual bool stageStore(khaos::ArtifactStore::Snapshot &) const {
    return false;
  }
};

/// The workload names, in the order the usage text lists them.
const std::vector<std::string> &workloadNames();

/// The diff workload's tool roster: the four light tools, then DeepBinDiff.
const std::vector<std::string> &diffToolNames();

/// Every mode some workload runs: the 12 of allObfuscationModes() plus
/// the overhead workload's Fla.
const std::vector<khaos::ObfuscationMode> &benchModes();

/// Creates workload \p Name for workload seed \p Seed on \p Threads workers.
std::unique_ptr<BenchWorkload> makeWorkload(const std::string &Name,
                                            uint64_t Seed, unsigned Threads);

/// Runs Fn(0..N-1) on min(Threads, N) threads, claiming items in order.
void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Fn);

} // namespace perfbench

#endif // KHAOS_PERFBENCH_WORKLOADS_H
