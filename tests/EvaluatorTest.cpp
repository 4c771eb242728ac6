//===- tests/EvaluatorTest.cpp - EvalScheduler batch engine tests ------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the parallel evaluation batch engine: thread-count
/// independence of EvalPipeline::obfuscate over a (workload × mode)
/// matrix, the mode-major cell order and the tool-major task order,
/// graceful error surfacing for failing
/// workloads and deterministic per-cell seeding.
/// (Cache/shard behaviour is covered by PipelineCacheTest.)
///
//===----------------------------------------------------------------------===//

#include "harness/EvalScheduler.h"
#include "ir/IRPrinter.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <mutex>

using namespace khaos;

namespace {

std::vector<Workload> smallMatrixSuite() {
  std::vector<Workload> All = coreUtilsSuite();
  std::vector<Workload> Out(All.begin(), All.begin() + 4);
  return Out;
}

void expectStatsEqual(const ObfuscationResult &A, const ObfuscationResult &B) {
  EXPECT_EQ(A.Fission.OriFuncs, B.Fission.OriFuncs);
  EXPECT_EQ(A.Fission.ProcessedFuncs, B.Fission.ProcessedFuncs);
  EXPECT_EQ(A.Fission.SepFuncs, B.Fission.SepFuncs);
  EXPECT_EQ(A.Fission.SepBlocks, B.Fission.SepBlocks);
  EXPECT_EQ(A.Fission.LazyAllocas, B.Fission.LazyAllocas);
  EXPECT_EQ(A.Fission.OriInstructions, B.Fission.OriInstructions);
  EXPECT_EQ(A.Fission.MovedInstructions, B.Fission.MovedInstructions);
  EXPECT_EQ(A.Fusion.Candidates, B.Fusion.Candidates);
  EXPECT_EQ(A.Fusion.Fused, B.Fusion.Fused);
  EXPECT_EQ(A.Fusion.Pairs, B.Fusion.Pairs);
  EXPECT_EQ(A.Fusion.CompressedParams, B.Fusion.CompressedParams);
  EXPECT_EQ(A.Fusion.DeepMergedBlocks, B.Fusion.DeepMergedBlocks);
  EXPECT_EQ(A.Fusion.Trampolines, B.Fusion.Trampolines);
  EXPECT_EQ(A.Fusion.TaggedPointerSites, B.Fusion.TaggedPointerSites);
  EXPECT_EQ(A.BaselineSites, B.BaselineSites);
}

/// One cell of EvalPipeline::obfuscate over a scheduler's matrix.
struct CompiledCell {
  CompiledWorkload Compiled;
  ObfuscationResult Stats;
};

/// Totals over the cells, merged under a mutex as the benches merge theirs.
struct CompiledTotals {
  size_t Cells = 0;
  size_t Failures = 0;
  ObfuscationResult Stats; ///< Fission and Fusion summed over the cells.
};

/// EvalPipeline::obfuscate over every cell on \p Sched's pool; each result
/// lands at its FlatIdx.
std::vector<CompiledCell>
obfuscateMatrix(const EvalScheduler &Sched, const std::vector<Workload> &Suite,
                const std::vector<ObfuscationMode> &Modes,
                CompiledTotals &Totals) {
  std::vector<CompiledCell> Out(Suite.size() * Modes.size());
  std::mutex M;
  Sched.forEachCell(Suite, Modes, [&](const EvalCell &C) {
    CompiledCell &Slot = Out[C.FlatIdx];
    Slot.Compiled =
        Sched.pipeline().obfuscate(*C.W, C.Mode, &Slot.Stats, C.Seed);
    std::lock_guard<std::mutex> Lock(M);
    Totals.Cells += 1;
    Totals.Failures += Slot.Compiled ? 0 : 1;
    Totals.Stats.Fission.merge(Slot.Stats.Fission);
    Totals.Stats.Fusion.merge(Slot.Stats.Fusion);
  });
  return Out;
}

//===----------------------------------------------------------------------===//
// Seeding
//===----------------------------------------------------------------------===//

TEST(CellSeed, DeterministicAndDistinct) {
  uint64_t S1 = deriveCellSeed(0xc906, "gzip", ObfuscationMode::Fission);
  uint64_t S2 = deriveCellSeed(0xc906, "gzip", ObfuscationMode::Fission);
  EXPECT_EQ(S1, S2);
  EXPECT_NE(S1, deriveCellSeed(0xc906, "gzip", ObfuscationMode::Fusion));
  EXPECT_NE(S1, deriveCellSeed(0xc906, "mcf", ObfuscationMode::Fission));
  EXPECT_NE(S1, deriveCellSeed(0xdead, "gzip", ObfuscationMode::Fission));
}

TEST(CellSeed, MatchesCellEnumeration) {
  std::vector<Workload> Suite = smallMatrixSuite();
  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
  EvalScheduler Sched({/*Threads=*/1, /*Seed=*/0xc906});
  std::vector<uint64_t> Seeds(Suite.size() * Modes.size(), 0);
  Sched.forEachCell(Suite, Modes, [&](const EvalCell &C) {
    Seeds[C.FlatIdx] = C.Seed;
  });
  for (size_t WI = 0; WI != Suite.size(); ++WI)
    for (size_t MI = 0; MI != Modes.size(); ++MI)
      EXPECT_EQ(Seeds[WI * Modes.size() + MI],
                deriveCellSeed(0xc906, Suite[WI].Name, Modes[MI]));
}

//===----------------------------------------------------------------------===//
// Thread-count independence
//===----------------------------------------------------------------------===//

TEST(EvalScheduler, CompileMatrixIdenticalAcrossThreadCounts) {
  std::vector<Workload> Suite = smallMatrixSuite();
  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();

  EvalScheduler Serial({/*Threads=*/1, /*Seed=*/0xc906});
  EvalScheduler Pool({/*Threads=*/8, /*Seed=*/0xc906});
  EXPECT_EQ(Serial.threadCount(), 1u);
  EXPECT_EQ(Pool.threadCount(), 8u);

  CompiledTotals SerialRun, PoolRun;
  auto A = obfuscateMatrix(Serial, Suite, Modes, SerialRun);
  auto B = obfuscateMatrix(Pool, Suite, Modes, PoolRun);
  ASSERT_EQ(A.size(), Suite.size() * Modes.size());
  ASSERT_EQ(A.size(), B.size());

  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(static_cast<bool>(A[I].Compiled),
              static_cast<bool>(B[I].Compiled));
    EXPECT_EQ(A[I].Compiled.Error, B[I].Compiled.Error);
    expectStatsEqual(A[I].Stats, B[I].Stats);
    if (A[I].Compiled && B[I].Compiled) {
      // The strongest determinism check: the obfuscated IR itself is
      // byte-identical, not just the counters.
      EXPECT_EQ(printModule(*A[I].Compiled.M), printModule(*B[I].Compiled.M));
    }
  }

  // Mutex-merged totals agree regardless of worker interleaving.
  EXPECT_EQ(SerialRun.Cells, A.size());
  EXPECT_EQ(PoolRun.Cells, B.size());
  EXPECT_EQ(SerialRun.Failures, PoolRun.Failures);
  expectStatsEqual(SerialRun.Stats, PoolRun.Stats);
}

TEST(EvalScheduler, OverheadMatrixIdenticalAcrossThreadCounts) {
  std::vector<Workload> Suite = smallMatrixSuite();
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Fission,
                                              ObfuscationMode::Fusion,
                                              ObfuscationMode::FuFiAll};

  EvalScheduler Serial({/*Threads=*/1, /*Seed=*/0xc906});
  EvalScheduler Pool({/*Threads=*/4, /*Seed=*/0xc906});
  auto A = Serial.overheadMatrix(Suite, Modes);
  auto B = Pool.overheadMatrix(Suite, Modes);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Ok, B[I].Ok);
    // Bitwise equality: the VM cost model is integral and the percent is a
    // single division, so any drift would indicate shared mutable state.
    EXPECT_EQ(A[I].Percent, B[I].Percent);
  }
}

TEST(EvalScheduler, CellPlaneIsModeMajor) {
  // Mode-major dispatch: every workload's mode-0 cell, then every mode-1
  // cell, ... so the first N workers start N different workloads' frontend
  // compiles and baselines instead of queueing on one workload's. FlatIdx
  // stays row-major.
  std::vector<Workload> Suite = smallMatrixSuite();
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Sub,
                                              ObfuscationMode::Fission,
                                              ObfuscationMode::Fusion};
  const size_t NumWorkloads = Suite.size();
  EvalScheduler Sched({/*Threads=*/1, /*Seed=*/0xc906});
  std::vector<EvalCell> Order;
  Sched.forEachCell(Suite, Modes,
                    [&](const EvalCell &C) { Order.push_back(C); });
  ASSERT_EQ(Order.size(), NumWorkloads * Modes.size());
  for (size_t K = 0; K != Order.size(); ++K) {
    const EvalCell &C = Order[K];
    EXPECT_EQ(C.ModeIdx, K / NumWorkloads) << "cell " << K;
    EXPECT_EQ(C.WorkloadIdx, K % NumWorkloads) << "cell " << K;
    EXPECT_EQ(C.FlatIdx, C.WorkloadIdx * Modes.size() + C.ModeIdx)
        << "cell " << K;
    EXPECT_EQ(C.W, &Suite[C.WorkloadIdx]);
    EXPECT_EQ(C.Mode, Modes[C.ModeIdx]);
  }

  // A shard visits its own cells (FlatIdx % Shards == ShardIdx) in the
  // same mode-major order.
  EvalScheduler::Config SC;
  SC.Threads = 1;
  SC.Shards = 2;
  SC.ShardIdx = 1;
  EvalScheduler Shard(SC);
  std::vector<size_t> ShardOrder;
  Shard.forEachCell(Suite, Modes, [&](const EvalCell &C) {
    ShardOrder.push_back(C.FlatIdx);
  });
  std::vector<size_t> Want;
  for (const EvalCell &C : Order)
    if (C.FlatIdx % 2 == 1)
      Want.push_back(C.FlatIdx);
  EXPECT_EQ(ShardOrder, Want);
}

TEST(EvalScheduler, CellTaskPlaneIsToolMajor) {
  // Tool-major dispatch: every cell's ToolIdx-0 task, then every cell's
  // ToolIdx-1 task, ... so the first N workers start N different cells'
  // image builds instead of queueing on one cell's. Within a tool the
  // cells come mode-major, so those N cells belong to N workloads.
  std::vector<Workload> Suite = smallMatrixSuite();
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Sub,
                                              ObfuscationMode::Fission,
                                              ObfuscationMode::Fusion};
  const size_t NumCells = Suite.size() * Modes.size(), NumTools = 3;
  EvalScheduler Sched({/*Threads=*/1, /*Seed=*/0xc906});
  std::vector<std::pair<size_t, size_t>> Order; // (ToolIdx, FlatIdx)
  Sched.forEachCellTask(Suite, Modes, NumTools, [&](const EvalTask &T) {
    Order.emplace_back(T.ToolIdx, T.Cell.FlatIdx);
  });
  ASSERT_EQ(Order.size(), NumCells * NumTools);
  for (size_t I = 0; I != Order.size(); ++I) {
    // The (I % NumCells)-th cell in mode-major order.
    const size_t K = I % NumCells;
    const size_t MI = K / Suite.size(), WI = K % Suite.size();
    EXPECT_EQ(Order[I].first, I / NumCells) << "task " << I;
    EXPECT_EQ(Order[I].second, WI * Modes.size() + MI) << "task " << I;
  }
}

//===----------------------------------------------------------------------===//
// Failure surfacing
//===----------------------------------------------------------------------===//

TEST(EvalScheduler, FailingWorkloadSurfacesErrorNotCrash) {
  std::vector<Workload> Suite = smallMatrixSuite();
  Workload Broken;
  Broken.Name = "does_not_parse";
  Broken.Source = "int main( { return syntax error; }";
  Suite.insert(Suite.begin() + 1, Broken);

  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
  EvalScheduler Pool({/*Threads=*/8, /*Seed=*/0xc906});
  CompiledTotals Run;
  auto Cells = obfuscateMatrix(Pool, Suite, Modes, Run);
  ASSERT_EQ(Cells.size(), Suite.size() * Modes.size());

  for (size_t MI = 0; MI != Modes.size(); ++MI) {
    const auto &Cell = Cells[1 * Modes.size() + MI];
    EXPECT_FALSE(Cell.Compiled);
    EXPECT_EQ(Cell.Compiled.M, nullptr);
    EXPECT_FALSE(Cell.Compiled.Error.empty());
  }
  // The broken workload fails in every mode; the real ones all compile.
  EXPECT_EQ(Run.Failures, Modes.size());
  EXPECT_EQ(Run.Cells, Cells.size());
}

TEST(EvalScheduler, ThreadCountDefaultsToAtLeastOne) {
  EvalScheduler Sched({/*Threads=*/0, /*Seed=*/1});
  EXPECT_GE(Sched.threadCount(), 1u);
}

} // namespace
