//===- harness/BinTuner.h - Iterative compilation search --------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BinTuner (Ren et al., PLDI'21) analogue: searches compiler option
/// tuples (optimization level + codegen style flags) to *maximize* the
/// binary difference against a baseline build, scored with the BinDiff
/// similarity. The paper compares Khaos against BinTuner in Fig. 9 and
/// reports BinTuner's ~30% overhead.
///
/// The search runs on an EvalPipeline: every candidate build is a cached
/// Baseline/BaselineImage artifact keyed on its BuildConfig, so a tuning
/// run shares builds with the confound matrix (and with its own repeats —
/// a warm re-run performs zero recompiles), and seeds come from the
/// caller (derive them from the run seed; there is no default).
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_HARNESS_BINTUNER_H
#define KHAOS_HARNESS_BINTUNER_H

#include "harness/Evaluator.h"

namespace khaos {

struct BinTunerResult {
  bool Ok = false;
  /// The configuration the search judged most dissimilar to the baseline.
  BuildConfig Best;
  /// BinDiff similarity of the best candidate against builds at O0..O3.
  double SimilarityVsLevel[4] = {0, 0, 0, 0};
  /// Runtime overhead of the best candidate vs the O2 baseline (percent).
  double OverheadPercent = 0.0;
};

/// The search, bound to the pipeline whose ArtifactStore caches its
/// candidate builds.
class BinTuner {
public:
  struct Options {
    unsigned Budget = 24; ///< Candidate configurations to evaluate.
  };

  explicit BinTuner(EvalPipeline &Pipe) : Pipe(Pipe) {}
  BinTuner(EvalPipeline &Pipe, Options Opts) : Pipe(Pipe), Opts(Opts) {}

  /// Runs the search on one workload. \p Seed drives the candidate draw;
  /// pass a scheduler-derived seed (deriveCellSeed) so results are stable
  /// across thread counts but still keyed to the run seed.
  BinTunerResult run(const Workload &W, uint64_t Seed) const;

private:
  EvalPipeline &Pipe;
  Options Opts;
};

} // namespace khaos

#endif // KHAOS_HARNESS_BINTUNER_H
