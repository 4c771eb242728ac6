//===- bench/vm_engines.cpp - VM engine A/B throughput ---------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A/B throughput of the two VM execution engines (reference IR walker vs
/// precompiled register-file bytecode with direct-threaded dispatch) over
/// the Figure-6 SPEC workload set. For every workload both engines run the
/// same baseline module (O2 unless `--baseline-opt` says otherwise); the
/// bench checks the runs are observationally identical (Ok, ExitValue,
/// Stdout, Steps, Cost) and measures steps/sec.
///
/// stdout is deterministic — workload names, per-run step counts and the
/// A/B match verdicts only. Wall-clock timings (which vary run to run) go
/// to stderr and, with `--json PATH`, into the machine-readable result
/// file whose committed copy is the repo's BENCH_vm.json perf trajectory.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "vm/PrecompiledInterpreter.h"

#include <chrono>

using namespace khaos;

namespace {

/// One engine's measurement over one workload.
struct EngineRun {
  ExecResult First;     ///< Result of the first run (all runs identical).
  unsigned Runs = 0;    ///< Timed iterations.
  double Seconds = 0.0; ///< Wall-clock for all timed iterations.

  double stepsPerSec() const {
    return Seconds > 0.0 ? double(First.Steps) * Runs / Seconds : 0.0;
  }
};

template <typename Fn> EngineRun timeRuns(unsigned Iters, Fn &&Run) {
  EngineRun R;
  R.First = Run(); // Warm-up, and the result every timed run must equal.
  R.Runs = Iters;
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Iters; ++I) {
    ExecResult E = Run();
    // Fold a cheap invariant into the timing loop so the compiler cannot
    // hoist the run; any mismatch is a determinism bug worth trapping on.
    if (E.Steps != R.First.Steps) {
      std::fprintf(stderr, "vm_engines: nondeterministic step count\n");
      std::exit(1);
    }
  }
  R.Seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            T0)
                  .count();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath;
  EvalScheduler::Config SC = parseSchedulerArgs(
      argc, argv,
      {{"--json", "PATH", "also write the machine-readable result file",
        [&JsonPath](const char *V) { JsonPath = V; }}});
  EvalPipeline Pipe(SC.pipelineConfig());

  // The Figure-6 workload plane (baselines only — engine throughput, not
  // obfuscation overhead). Quick mode thins it like every other bench.
  std::vector<Workload> Suite = maybeThin(specCpu2006Suite());
  {
    std::vector<Workload> S17 = maybeThin(specCpu2017Suite());
    Suite.insert(Suite.end(), std::make_move_iterator(S17.begin()),
                 std::make_move_iterator(S17.end()));
  }

  const unsigned RefIters = quickMode() ? 1 : 3;
  const unsigned PreIters = quickMode() ? 2 : 12;

  printHeader("VM engines",
              "reference vs precompiled interpreter throughput (fig6 "
              "baselines)");
  TableRenderer Table({"benchmark", "steps/run", "A/B"});

  BenchJsonWriter Json;
  Json.set("bench", std::string("vm_engines"));
  Json.set("quick", quickMode());
  Json.set("unit", std::string("steps/sec"));

  uint64_t TotalSteps = 0;
  double RefSecPerStepSum = 0.0, PreSecPerStepSum = 0.0;
  size_t Measured = 0;
  bool AllMatch = true;

  for (const Workload &W : Suite) {
    std::shared_ptr<const CompiledWorkload> Base = Pipe.baseline(W);
    std::shared_ptr<const EvalPipeline::PrecompiledArtifact> Pre =
        Pipe.precompiledBaseline(W);
    if (!Base || !*Base || !Pre || !Pre->Ok) {
      Table.addRow({W.Name, "n/a", "n/a"});
      continue;
    }

    EngineRun Ref = timeRuns(RefIters, [&] {
      ExecOptions EO;
      EO.Engine = VMEngine::Reference;
      return runModule(*Base->M, EO);
    });
    EngineRun PreR =
        timeRuns(PreIters, [&] { return runPrecompiled(Pre->BM); });

    bool Match = Ref.First == PreR.First;
    AllMatch = AllMatch && Match;
    Table.addRow({W.Name, std::to_string(Ref.First.Steps),
                  Match ? "match" : "MISMATCH"});

    double Speedup = Ref.stepsPerSec() > 0.0
                         ? PreR.stepsPerSec() / Ref.stepsPerSec()
                         : 0.0;
    std::fprintf(stderr,
                 "# %-18s ref %12.0f steps/s   precompiled %12.0f steps/s   "
                 "speedup %5.2fx\n",
                 W.Name.c_str(), Ref.stepsPerSec(), PreR.stepsPerSec(),
                 Speedup);

    BenchJsonWriter Row;
    Row.set("workload", W.Name);
    Row.set("steps_per_run", Ref.First.Steps);
    Row.set("match", Match);
    Row.set("reference_runs", int(Ref.Runs));
    Row.set("reference_seconds", Ref.Seconds);
    Row.set("reference_steps_per_sec", Ref.stepsPerSec());
    Row.set("precompiled_runs", int(PreR.Runs));
    Row.set("precompiled_seconds", PreR.Seconds);
    Row.set("precompiled_steps_per_sec", PreR.stepsPerSec());
    Row.set("speedup", Speedup);
    Json.addRow("workloads", Row);

    TotalSteps += Ref.First.Steps;
    RefSecPerStepSum += Ref.Seconds / (double(Ref.First.Steps) * Ref.Runs);
    PreSecPerStepSum += PreR.Seconds / (double(PreR.First.Steps) * PreR.Runs);
    ++Measured;
  }

  // Aggregate throughput: harmonic-style mean over workloads (each counts
  // equally, so one long workload cannot mask regressions elsewhere).
  double RefAgg = Measured ? Measured / RefSecPerStepSum : 0.0;
  double PreAgg = Measured ? Measured / PreSecPerStepSum : 0.0;
  double AggSpeedup = RefAgg > 0.0 ? PreAgg / RefAgg : 0.0;

  Table.print();
  std::printf("\nA/B observational equality: %s\n",
              AllMatch ? "all workloads match" : "MISMATCH — see table");
  std::fprintf(stderr,
               "# AGGREGATE ref %12.0f steps/s   precompiled %12.0f steps/s  "
               " speedup %5.2fx over %zu workloads\n",
               RefAgg, PreAgg, AggSpeedup, Measured);

  Json.set("workloads_measured", uint64_t(Measured));
  Json.set("total_steps_per_sweep", TotalSteps);
  Json.set("reference_steps_per_sec", RefAgg);
  Json.set("precompiled_steps_per_sec", PreAgg);
  Json.set("speedup", AggSpeedup);
  Json.set("all_match", AllMatch);
  if (!JsonPath.empty() && !Json.writeFile(JsonPath, "vm_engines"))
    return 1;

  return AllMatch ? 0 : 1;
}
