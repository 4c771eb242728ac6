//===- bench/micro_passes.cpp - Pass throughput micro-benchmarks ---------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the compiler substrate: frontend
/// throughput, the O2 pipeline, the Khaos primitives, module cloning and
/// teardown, and binary lowering.
/// Not a paper figure — kept for performance regression tracking.
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "harness/Evaluator.h"
#include "transform/Cloning.h"
#include "workloads/SyntheticProgram.h"

#include <benchmark/benchmark.h>

using namespace khaos;

namespace {

const std::string &benchSource() {
  static const std::string Src = [] {
    ProgramSpec S;
    S.Name = "microbench";
    S.NumFunctions = 40;
    S.Seed = 99;
    return generateMiniCProgram(S);
  }();
  return Src;
}

void BM_CompileMiniC(benchmark::State &State) {
  for (auto _ : State) {
    Context Ctx;
    std::string Err;
    auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_CompileMiniC);

void BM_OptimizeO2(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    Context Ctx;
    std::string Err;
    auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
    State.ResumeTiming();
    optimizeModule(*M, OptLevel::O2);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_OptimizeO2);

void BM_Fission(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    Context Ctx;
    std::string Err;
    auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
    State.ResumeTiming();
    FissionStats Stats;
    runFission(*M, Stats);
    benchmark::DoNotOptimize(Stats.SepFuncs);
  }
}
BENCHMARK(BM_Fission);

void BM_Fusion(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    Context Ctx;
    std::string Err;
    auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
    State.ResumeTiming();
    FusionStats Stats;
    runFusion(*M, Stats);
    benchmark::DoNotOptimize(Stats.Pairs);
  }
}
BENCHMARK(BM_Fusion);

/// An O2 module of benchSource(), built once and shared by every thread
/// that clones it.
const Module &sharedO2Module() {
  static Context Ctx;
  static const std::unique_ptr<Module> M = [] {
    std::string Err;
    auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
    optimizeModule(*M, OptLevel::O2);
    return M;
  }();
  return *M;
}

/// Clones one shared module; the clones' teardown is not timed. With
/// Threads(4), four threads clone the same module at once, with no lock.
void BM_CloneModule(benchmark::State &State) {
  const Module &Src = sharedO2Module();
  for (auto _ : State) {
    std::unique_ptr<Module> Clone = cloneModule(Src);
    benchmark::DoNotOptimize(Clone.get());
    State.PauseTiming();
    Clone.reset();
    State.ResumeTiming();
  }
}
BENCHMARK(BM_CloneModule);
BENCHMARK(BM_CloneModule)->Name("BM_CloneModuleShared")->Threads(4);

void BM_DestroyModule(benchmark::State &State) {
  Context Ctx;
  for (auto _ : State) {
    State.PauseTiming();
    std::string Err;
    auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
    State.ResumeTiming();
    M.reset();
  }
}
BENCHMARK(BM_DestroyModule);

void BM_LowerToBinary(benchmark::State &State) {
  Context Ctx;
  std::string Err;
  auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
  optimizeModule(*M, OptLevel::O2);
  for (auto _ : State) {
    BinaryImage Img = lowerToBinary(*M);
    benchmark::DoNotOptimize(Img.Functions.size());
  }
}
BENCHMARK(BM_LowerToBinary);

void BM_DiffBinDiff(benchmark::State &State) {
  ProgramSpec S;
  S.Name = "microbench";
  S.NumFunctions = 40;
  S.Seed = 99;
  Workload W{S.Name, generateMiniCProgram(S), {}, {}};
  DiffImages Imgs = EvalPipeline().diffImages(W, ObfuscationMode::FuFiAll);
  auto Tool = createBinDiffTool();
  for (auto _ : State) {
    DiffResult R = Tool->diff(Imgs.A, Imgs.FA, Imgs.B, Imgs.FB);
    benchmark::DoNotOptimize(R.WholeBinarySimilarity);
  }
}
BENCHMARK(BM_DiffBinDiff);

} // namespace

BENCHMARK_MAIN();
