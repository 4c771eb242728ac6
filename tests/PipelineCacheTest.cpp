//===- tests/PipelineCacheTest.cpp - ArtifactStore / registry tests ----------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the staged pipeline redesign: cached and uncached runs
/// produce identical printed IR and precision numbers, every mode of a
/// workload clones one frontend compile (also from four threads at once),
/// a warm-cache precision re-run performs zero recompiles, run telemetry
/// sums the store's per-stage counter deltas and derives every total from
/// the stages, the union of sharded runs equals the unsharded run
/// cell-for-cell, and the DiffTool registry rejects unknown names loudly
/// while accepting new backends.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "harness/DifferentialFuzzer.h"
#include "harness/EvalScheduler.h"
#include "ir/IRPrinter.h"
#include "transform/Cloning.h"
#include "workloads/Suites.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace khaos;

namespace {

std::vector<Workload> smallSuite(size_t N = 3) {
  std::vector<Workload> All = coreUtilsSuite();
  return std::vector<Workload>(All.begin(), All.begin() + N);
}

//===----------------------------------------------------------------------===//
// Cache transparency
//===----------------------------------------------------------------------===//

TEST(PipelineCache, CachedAndUncachedProduceIdenticalIR) {
  std::vector<Workload> Suite = smallSuite();
  const std::vector<ObfuscationMode> Modes = {
      ObfuscationMode::Sub, ObfuscationMode::Fission,
      ObfuscationMode::Fusion, ObfuscationMode::FuFiSep,
      ObfuscationMode::FuFiAll};

  EvalPipeline Cached(EvalPipeline::Config{/*CacheEnabled=*/true, 0, {}, 0});
  EvalPipeline Uncached(EvalPipeline::Config{/*CacheEnabled=*/false, 0, {}, 0});

  for (const Workload &W : Suite) {
    for (ObfuscationMode Mode : Modes) {
      uint64_t Seed = deriveCellSeed(0xc906, W.Name, Mode);
      CompiledWorkload A = Cached.obfuscate(W, Mode, nullptr, Seed);
      CompiledWorkload B = Uncached.obfuscate(W, Mode, nullptr, Seed);
      ASSERT_TRUE(A) << W.Name << "/" << obfuscationModeName(Mode) << ": "
                     << A.Error;
      ASSERT_TRUE(B) << W.Name << "/" << obfuscationModeName(Mode) << ": "
                     << B.Error;
      EXPECT_EQ(printModule(*A.M), printModule(*B.M))
          << W.Name << "/" << obfuscationModeName(Mode);
      // A second cached request must also be identical (every mode clones
      // the shared frontend artifact instead of recompiling).
      CompiledWorkload A2 = Cached.obfuscate(W, Mode, nullptr, Seed);
      EXPECT_EQ(printModule(*A.M), printModule(*A2.M));
    }
  }
  EXPECT_GT(Cached.store().stats().Hits, 0u);
  EXPECT_EQ(Uncached.store().stats().Hits, 0u);
}

TEST(PipelineCache, SameNameDifferentSourceDoesNotAlias) {
  // Keys are content-addressed: a name collision between two distinct
  // programs must not hand the second one the first one's artifacts.
  ProgramSpec S1;
  S1.Name = "twin";
  S1.NumFunctions = 4;
  S1.Seed = 1;
  ProgramSpec S2 = S1;
  S2.Seed = 2;
  Workload A{S1.Name, generateMiniCProgram(S1), {}, {}};
  Workload B{S2.Name, generateMiniCProgram(S2), {}, {}};
  ASSERT_NE(A.Source, B.Source);

  EvalPipeline Pipe;
  auto BA = Pipe.baseline(A);
  auto BB = Pipe.baseline(B);
  ASSERT_TRUE(*BA && *BB);
  ArtifactStore::Snapshot S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::Baseline).Misses, 2u);
  EXPECT_EQ(S.stage(ArtifactStage::Baseline).Hits, 0u);
  EXPECT_NE(printModule(*BA->M), printModule(*BB->M));
}

TEST(PipelineCache, CloneModulePrintsIdentically) {
  Workload W = smallSuite(1).front();
  EvalPipeline Pipe;
  std::shared_ptr<const EvalPipeline::FissionArtifact> FA =
      Pipe.fissionStage(W);
  ASSERT_TRUE(*FA);
  std::unique_ptr<Module> Clone = cloneModule(*FA->M);
  EXPECT_EQ(printModule(*FA->M), printModule(*Clone));
}

using UseLists =
    std::vector<std::pair<const Value *, std::vector<Instruction *>>>;

/// A copy of the use list of every value of \p M that can have users:
/// functions, arguments, globals, instructions and the constants the
/// bodies name, in that walk order.
UseLists useLists(const Module &M) {
  UseLists Out;
  std::set<const Value *> Seen;
  auto Add = [&](const Value *V) {
    if (Seen.insert(V).second)
      Out.emplace_back(V, V->users());
  };
  for (const auto &F : M.functions()) {
    Add(F.get());
    for (const auto &A : F->args())
      Add(A.get());
  }
  for (const auto &G : M.globals())
    Add(G.get());
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->insts()) {
        Add(I.get());
        for (const Value *Op : I->operands())
          Add(Op);
      }
  return Out;
}

/// The use lists of a module whose every operand slot was registered in
/// (function, block, instruction, slot) order.
std::map<const Value *, std::vector<Instruction *>>
walkOrderUsers(const Module &M) {
  std::map<const Value *, std::vector<Instruction *>> Users;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->insts())
        for (const Value *Op : I->operands())
          Users[Op].push_back(I.get());
  return Users;
}

/// The clone contract below the printed IR, which shows no use lists:
/// cloning leaves every source use list pointer-identical, and the clone's
/// use lists come out in walk order (Fusion's call-site rewrite, Fission's
/// input rewiring and DemoteValues iterate users(), so the order is part
/// of what a pass run on the clone sees).
TEST(PipelineCache, CloneModuleKeepsUseListOrder) {
  Workload W = smallSuite(1).front();
  EvalPipeline Pipe;
  std::shared_ptr<const EvalPipeline::FissionArtifact> FA =
      Pipe.fissionStage(W);
  ASSERT_TRUE(*FA);
  const UseLists Before = useLists(*FA->M);

  std::unique_ptr<Module> Clone = cloneModule(*FA->M);
  EXPECT_TRUE(useLists(*FA->M) == Before)
      << "cloning edited a source use list";

  std::map<const Value *, std::vector<Instruction *>> Expected =
      walkOrderUsers(*Clone);
  const UseLists Got = useLists(*Clone);
  ASSERT_EQ(Got.size(), Before.size());
  for (const auto &[V, Users] : Got)
    EXPECT_TRUE(Users == Expected[V])
        << "use list of '" << V->getName() << "' is out of walk order";
}

/// Four threads clone one shared fission-stage module with no lock. Under
/// ThreadSanitizer this is the guard against a clone that writes its
/// source.
TEST(PipelineCache, ConcurrentClonesNeedNoLock) {
  Workload W = smallSuite(1).front();
  EvalPipeline Pipe;
  std::shared_ptr<const EvalPipeline::FissionArtifact> FA =
      Pipe.fissionStage(W);
  ASSERT_TRUE(*FA);
  const std::string Source = printModule(*FA->M);
  const UseLists Before = useLists(*FA->M);

  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      for (unsigned I = 0; I != 8; ++I)
        if (printModule(*cloneModule(*FA->M)) != Source)
          ++Mismatches;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_TRUE(useLists(*FA->M) == Before)
      << "a concurrent clone edited a source use list";
}

TEST(PipelineCache, EveryModeClonesOneFrontend) {
  std::vector<Workload> Suite = smallSuite();
  EvalScheduler Sched({/*Threads=*/4, /*Seed=*/0xc906});
  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
  std::vector<CompiledWorkload> Cells(Suite.size() * Modes.size());
  Sched.forEachCell(Suite, Modes, [&](const EvalCell &C) {
    Cells[C.FlatIdx] =
        Sched.pipeline().obfuscate(*C.W, C.Mode, nullptr, C.Seed);
  });

  // The source was compiled once per workload; every other cell of the
  // workload, fission modes included, cloned the cached frontend, and no
  // cell touched the fission stage.
  ArtifactStore::Snapshot S = Sched.pipeline().store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::Frontend).Misses, Suite.size());
  EXPECT_EQ(S.stage(ArtifactStage::Frontend).Hits,
            (Modes.size() - 1) * Suite.size());
  EXPECT_EQ(S.stage(ArtifactStage::FissionStage).Misses, 0u);
  EXPECT_EQ(S.stage(ArtifactStage::FissionStage).Hits, 0u);
  EXPECT_GT(S.BytesSaved, 0u);

  // Each clone-then-obfuscate prints what a --no-cache pipeline prints.
  EvalPipeline Uncached(EvalPipeline::Config{/*CacheEnabled=*/false, 0, {}, 0});
  Sched.forEachCell(Suite, Modes, [&](const EvalCell &C) {
    const CompiledWorkload &Cell = Cells[C.FlatIdx];
    ASSERT_TRUE(Cell) << Cell.Error;
    CompiledWorkload Want = Uncached.obfuscate(*C.W, C.Mode, nullptr, C.Seed);
    ASSERT_TRUE(Want) << Want.Error;
    EXPECT_EQ(printModule(*Cell.M), printModule(*Want.M))
        << C.W->Name << "/" << obfuscationModeName(C.Mode);
  });
}

/// Four threads obfuscate different modes of one workload at once: each
/// clones the one shared frontend module and transforms its clone in the
/// frontend's Context. Under ThreadSanitizer this is the guard for the
/// compile-once route; the printed IR must match a --no-cache run.
TEST(PipelineCache, ConcurrentModesCloneOneFrontend) {
  Workload W = smallSuite(1).front();
  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
  const unsigned NumThreads = 4;
  EvalPipeline Uncached(EvalPipeline::Config{/*CacheEnabled=*/false, 0, {}, 0});
  std::vector<std::string> Want(Modes.size());
  for (size_t MI = 0; MI != Modes.size(); ++MI) {
    CompiledWorkload C = Uncached.obfuscate(
        W, Modes[MI], nullptr, deriveCellSeed(0xc906, W.Name, Modes[MI]));
    ASSERT_TRUE(C) << obfuscationModeName(Modes[MI]) << ": " << C.Error;
    Want[MI] = printModule(*C.M);
  }

  EvalPipeline Pipe;
  std::vector<std::string> Got(Modes.size());
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      // Start together, so the first request of every thread meets the
      // single-flight frontend compile.
      ++Ready;
      while (Ready.load() != NumThreads)
        std::this_thread::yield();
      for (size_t MI = T; MI < Modes.size(); MI += NumThreads) {
        CompiledWorkload C = Pipe.obfuscate(
            W, Modes[MI], nullptr, deriveCellSeed(0xc906, W.Name, Modes[MI]));
        if (C)
          Got[MI] = printModule(*C.M);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t MI = 0; MI != Modes.size(); ++MI)
    EXPECT_EQ(Got[MI], Want[MI]) << obfuscationModeName(Modes[MI]);
  ArtifactStore::Snapshot S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::Frontend).Misses, 1u);
  EXPECT_EQ(S.stage(ArtifactStage::Frontend).Hits, Modes.size() - 1);
}

/// Every counter a Snapshot totals, by name.
const std::pair<const char *, uint64_t ArtifactStore::StageCounters::*>
    CounterFields[] = {
        {"Hits", &ArtifactStore::StageCounters::Hits},
        {"Misses", &ArtifactStore::StageCounters::Misses},
        {"Evictions", &ArtifactStore::StageCounters::Evictions},
        {"DiskHits", &ArtifactStore::StageCounters::DiskHits},
        {"DiskMisses", &ArtifactStore::StageCounters::DiskMisses},
        {"DiskEvictions", &ArtifactStore::StageCounters::DiskEvictions},
        {"DiskCorrupt", &ArtifactStore::StageCounters::DiskCorrupt},
};

/// Each total of \p S is that counter summed over S.PerStage.
void expectTotalsSumTheStages(const ArtifactStore::Snapshot &S,
                              const char *What) {
  for (const auto &[Name, Field] : CounterFields) {
    uint64_t Sum = 0;
    for (const ArtifactStore::StageCounters &C : S.PerStage)
      Sum += C.*Field;
    EXPECT_EQ(S.*Field, Sum) << What << " total " << Name;
  }
}

TEST(PipelineCache, RunStatsFoldStoreDeltasStageByStage) {
  // A disk tier and a memory drop between the runs, so the hit, miss,
  // disk-hit and disk-miss counters are all nonzero somewhere.
  const std::string Dir = ::testing::TempDir() + "khaos-pipeline-fold-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  std::vector<Workload> Suite = smallSuite(2);
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Sub,
                                              ObfuscationMode::FuFiAll};
  EvalScheduler::Config C;
  C.Threads = 2;
  C.CacheDir = Dir;
  EvalScheduler Sched(C);
  const ArtifactStore &Store = Sched.pipeline().store();

  EvalRunStats Run;
  ArtifactStore::Snapshot S0 = Store.stats();
  Sched.precisionMatrix(Suite, Modes, {"Asm2Vec"}, &Run);
  ArtifactStore::Snapshot S1 = Store.stats();
  Sched.pipeline().store().clear();
  Sched.overheadMatrix(Suite, Modes, &Run);
  Sched.precisionMatrix(Suite, Modes, {"Asm2Vec"}, &Run);
  ArtifactStore::Snapshot S2 = Store.stats();
  std::filesystem::remove_all(Dir);

  ArtifactStore::Snapshot D1 = ArtifactStore::Snapshot::delta(S1, S0);
  ArtifactStore::Snapshot D2 = ArtifactStore::Snapshot::delta(S2, S1);
  for (size_t I = 0; I != static_cast<size_t>(ArtifactStage::NumStages);
       ++I) {
    const char *Stage = artifactStageName(static_cast<ArtifactStage>(I));
    for (const auto &[Name, Field] : CounterFields)
      EXPECT_EQ(Run.Cache.PerStage[I].*Field,
                D1.PerStage[I].*Field + D2.PerStage[I].*Field)
          << Stage << " " << Name;
  }
  EXPECT_EQ(Run.Cache.BytesSaved, D1.BytesSaved + D2.BytesSaved);
  EXPECT_GT(Run.Cache.Hits, 0u);
  EXPECT_GT(Run.Cache.Misses, 0u);
  EXPECT_GT(Run.Cache.DiskHits, 0u);
  EXPECT_GT(Run.Cache.DiskMisses, 0u);
  EXPECT_GT(Run.Cache.BytesSaved, 0u);

  expectTotalsSumTheStages(S1, "stats()");
  expectTotalsSumTheStages(S2, "stats()");
  expectTotalsSumTheStages(D1, "delta()");
  expectTotalsSumTheStages(D2, "delta()");
  expectTotalsSumTheStages(Run.Cache, "folded run");
}

TEST(PipelineCache, WarmPrecisionRunPerformsZeroRecompiles) {
  std::vector<Workload> Suite = smallSuite();
  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
  const std::vector<std::string> Tools = {"BinDiff", "Asm2Vec"};

  EvalScheduler Sched({/*Threads=*/4, /*Seed=*/0xc906});
  EvalRunStats ColdRun;
  auto Cold = Sched.precisionMatrix(Suite, Modes, Tools, &ColdRun);

  ArtifactStore::Snapshot AfterCold = Sched.pipeline().store().stats();
  // One frontend compile and one baseline per workload, ever.
  EXPECT_EQ(AfterCold.stage(ArtifactStage::Baseline).Misses, Suite.size());
  EXPECT_EQ(AfterCold.stage(ArtifactStage::BaselineImage).Misses,
            Suite.size());
  EXPECT_EQ(AfterCold.stage(ArtifactStage::Frontend).Misses, Suite.size());

  EvalRunStats WarmRun;
  auto Warm = Sched.precisionMatrix(Suite, Modes, Tools, &WarmRun);

  // The warm re-run recompiled nothing: every stage was a hit.
  ArtifactStore::Snapshot AfterWarm = Sched.pipeline().store().stats();
  ArtifactStore::Snapshot Delta =
      ArtifactStore::Snapshot::delta(AfterWarm, AfterCold);
  EXPECT_EQ(Delta.Misses, 0u);
  EXPECT_GT(Delta.Hits, 0u);
  EXPECT_EQ(WarmRun.Cache.Misses, 0u);
  EXPECT_GT(WarmRun.Cache.BytesSaved, 0u);

  // And produced bit-identical numbers.
  ASSERT_EQ(Cold.size(), Warm.size());
  for (size_t I = 0; I != Cold.size(); ++I) {
    EXPECT_EQ(Cold[I].Ok, Warm[I].Ok);
    EXPECT_EQ(Cold[I].PerTool, Warm[I].PerTool);
  }
}

TEST(PipelineCache, CacheOffMatchesCacheOnPrecision) {
  std::vector<Workload> Suite = smallSuite(2);
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Sub,
                                              ObfuscationMode::FuFiAll};
  const std::vector<std::string> Tools = {"Asm2Vec"};

  EvalScheduler On({/*Threads=*/4, /*Seed=*/0xc906,
                    /*CacheEnabled=*/true});
  EvalScheduler Off({/*Threads=*/4, /*Seed=*/0xc906,
                     /*CacheEnabled=*/false});
  auto A = On.precisionMatrix(Suite, Modes, Tools);
  auto B = Off.precisionMatrix(Suite, Modes, Tools);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Ok, B[I].Ok);
    EXPECT_EQ(A[I].PerTool, B[I].PerTool);
  }
  EXPECT_EQ(Off.pipeline().store().stats().Hits, 0u);
}

//===----------------------------------------------------------------------===//
// Sharding
//===----------------------------------------------------------------------===//

TEST(Sharding, UnionOfShardsEqualsUnshardedRun) {
  std::vector<Workload> Suite = smallSuite(4);
  const std::vector<ObfuscationMode> Modes = {
      ObfuscationMode::Sub, ObfuscationMode::Fission,
      ObfuscationMode::FuFiAll};
  const std::vector<std::string> Tools = {"BinDiff", "SAFE"};

  EvalScheduler Full({/*Threads=*/4, /*Seed=*/0xc906});
  auto Unsharded = Full.precisionMatrix(Suite, Modes, Tools);

  const unsigned Shards = 3;
  std::vector<EvalScheduler::CellPrecision> Union(Unsharded.size());
  size_t RanCells = 0;
  for (unsigned SI = 0; SI != Shards; ++SI) {
    EvalScheduler::Config C;
    C.Threads = 4;
    C.Seed = 0xc906;
    C.Shards = Shards;
    C.ShardIdx = SI;
    EvalScheduler Shard(C);
    auto Part = Shard.precisionMatrix(Suite, Modes, Tools);
    ASSERT_EQ(Part.size(), Unsharded.size());
    for (size_t I = 0; I != Part.size(); ++I) {
      EXPECT_EQ(Part[I].Ran, I % Shards == SI);
      if (!Part[I].Ran)
        continue;
      Union[I] = Part[I];
      ++RanCells;
    }
  }

  // Every cell ran in exactly one shard, with the unsharded result.
  EXPECT_EQ(RanCells, Unsharded.size());
  for (size_t I = 0; I != Unsharded.size(); ++I) {
    EXPECT_TRUE(Union[I].Ran);
    EXPECT_EQ(Union[I].Ok, Unsharded[I].Ok);
    EXPECT_EQ(Union[I].PerTool, Unsharded[I].PerTool) << "cell " << I;
  }
}

TEST(Sharding, OverheadMatrixMarksForeignCells) {
  std::vector<Workload> Suite = smallSuite(2);
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Fission,
                                              ObfuscationMode::Fusion};
  EvalScheduler::Config C;
  C.Threads = 2;
  C.Shards = 2;
  C.ShardIdx = 1;
  EvalScheduler Shard(C);
  auto Cells = Shard.overheadMatrix(Suite, Modes);
  ASSERT_EQ(Cells.size(), 4u);
  for (size_t I = 0; I != Cells.size(); ++I) {
    EXPECT_EQ(Cells[I].Ran, I % 2 == 1);
    if (!Cells[I].Ran) {
      EXPECT_FALSE(Cells[I].Ok);
    }
  }
}

//===----------------------------------------------------------------------===//
// Numeric flags
//===----------------------------------------------------------------------===//

/// Parses \p Args as a scheduler bench's command line, with the bench's
/// own rows \p Own ahead of the shared table.
EvalScheduler::Config parseBenchArgs(std::vector<std::string> Args,
                                     std::vector<BenchFlagSpec> Own = {}) {
  Args.insert(Args.begin(), "bench");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return parseSchedulerArgs(static_cast<int>(Argv.size()), Argv.data(),
                            std::move(Own));
}

TEST(BenchFlags, NumericFlagsTakeWholeDecimalOrHexTokens) {
  EvalScheduler::Config C = parseBenchArgs(
      {"--threads", "0x4", "--seed", "51462", "--shards", "3",
       "--shard-index=2", "--store-max-bytes", "0", "--disk-max-bytes",
       "0x100000"});
  EXPECT_EQ(C.Threads, 4u);
  EXPECT_EQ(C.Seed, 51462u);
  EXPECT_EQ(C.Shards, 3u);
  EXPECT_EQ(C.ShardIdx, 2u);
  EXPECT_EQ(C.StoreMaxBytes, 0u);
  EXPECT_EQ(C.DiskMaxBytes, 0x100000u);
  EXPECT_EQ(parseBenchArgs({"--seed", "0xC906"}).Seed, 0xc906u);
}

/// Garbage in a numeric flag must never run something else (`--seed
/// 12xyz` as seed 12, `--threads -1` as 4294967295 threads, a typo'd
/// `--tool-timeout-ms` as "wait forever"): each case is a usage error
/// naming the flag and the value, as is a shard index outside --shards.
TEST(BenchFlagsDeathTest, NumericGarbageExitsWithUsage) {
  const std::pair<std::vector<std::string>, const char *> Cases[] = {
      {{"--seed", "12xyz"}, "invalid value '12xyz' for --seed"},
      {{"--threads", "abc"}, "invalid value 'abc' for --threads"},
      {{"--threads", "-1"}, "invalid value '-1' for --threads"},
      {{"--threads", "4294967296"}, "invalid value '4294967296' for --threads"},
      {{"--seed", "010"}, "invalid value '010' for --seed"},
      {{"--seed", "0x0x10"}, "invalid value '0x0x10' for --seed"},
      {{"--seed", "0x"}, "invalid value '0x' for --seed"},
      {{"--tool-timeout-ms", "abc"},
       "invalid value 'abc' for --tool-timeout-ms"},
      {{"--store-max-bytes", "1e9"},
       "invalid value '1e9' for --store-max-bytes"},
      {{"--shards", "2", "--shard-index", "2"},
       "--shard-index 2 out of range for --shards 2"},
  };
  for (const auto &Case : Cases)
    EXPECT_EXIT(parseBenchArgs(Case.first), ::testing::ExitedWithCode(2),
                Case.second)
        << Case.first[0] << " " << Case.first[1];
  // khaos-fuzz's --budget goes through the same parser.
  EXPECT_EXIT(parseUnsignedFlag("12xyz", "--budget", "khaos-fuzz", UINT_MAX),
              ::testing::ExitedWithCode(2),
              "invalid value '12xyz' for --budget");
}

/// One grammar for unsigned numbers: a numeric flag and a repro's
/// `# obf-seed:` header accept and refuse the same spellings, and read the
/// same value from the ones they accept.
TEST(BenchFlagsDeathTest, FlagAndReproSeedShareOneNumberGrammar) {
  struct Spelling {
    const char *Text;
    bool Ok;
    uint64_t Value;
  };
  const Spelling Cases[] = {
      {"0", true, 0},
      {"12", true, 12},
      {"0x1F", true, 0x1F},
      {"0X1F", true, 0x1F},
      {"18446744073709551615", true, UINT64_MAX},
      {"012", false, 0},
      {"", false, 0},
      {"0x", false, 0},
      {"-1", false, 0},
      {"1a", false, 0},
      {"18446744073709551616", false, 0}, // 2^64
  };
  const DifferentialFuzzer Fuzzer{DifferentialFuzzer::Config{}};
  for (const Spelling &C : Cases) {
    SCOPED_TRACE(std::string("'") + C.Text + "'");
    uint64_t Parsed = 7;
    EXPECT_EQ(parseUnsigned(C.Text, Parsed), C.Ok);
    EXPECT_EQ(Parsed, C.Ok ? C.Value : 7u);
    if (C.Ok)
      EXPECT_EQ(parseUnsignedFlag(C.Text, "--seed", "bench"), C.Value);
    else
      EXPECT_EXIT(parseUnsignedFlag(C.Text, "--seed", "bench"),
                  ::testing::ExitedWithCode(2),
                  std::string("invalid value '") + C.Text + "' for --seed");
    const ReplayResult R =
        Fuzzer.replayRepro(std::string("# khaos-fuzz repro v1\n"
                                       "# name: tiny\n"
                                       "# mode: Sub\n"
                                       "# obf-seed: ") +
                           C.Text +
                           "\n"
                           "# --- MiniC source ---\n"
                           "int main() { return 6 * 7; }\n");
    EXPECT_EQ(R.State, C.Ok ? ReplayResult::Status::Replayed
                            : ReplayResult::Status::Malformed)
        << R.Message;
  }
}

//===----------------------------------------------------------------------===//
// Flag grammar
//===----------------------------------------------------------------------===//

TEST(BenchFlags, SeparateAndEqualsValuesParseAlike) {
  const std::vector<std::string> Separate = {
      "--threads",      "3",      "--seed",           "0x51",
      "--shards",       "2",      "--shard-index",    "1",
      "--store-max-bytes", "4096", "--cache-dir",     "kc",
      "--disk-max-bytes", "8192", "--connect",        "s.sock",
      "--baseline-opt", "O1",   "--codegen",        "no-lea",
      "--compiler-style", "gcc"};
  std::vector<std::string> Joined;
  for (size_t I = 0; I < Separate.size(); I += 2)
    Joined.push_back(Separate[I] + "=" + Separate[I + 1]);
  EvalScheduler::Config A = parseBenchArgs(Separate);
  EvalScheduler::Config B = parseBenchArgs(Joined);
  EXPECT_EQ(A.Threads, 3u);
  EXPECT_EQ(A.Seed, 0x51u);
  EXPECT_EQ(A.Baseline.Level, OptLevel::O1);
  EXPECT_EQ(A.Baseline.Codegen.Style, CompilerStyle::GccLike);
  EXPECT_EQ(A.Threads, B.Threads);
  EXPECT_EQ(A.Seed, B.Seed);
  EXPECT_EQ(A.Shards, B.Shards);
  EXPECT_EQ(A.ShardIdx, B.ShardIdx);
  EXPECT_EQ(A.StoreMaxBytes, B.StoreMaxBytes);
  EXPECT_EQ(A.CacheDir, B.CacheDir);
  EXPECT_EQ(A.DiskMaxBytes, B.DiskMaxBytes);
  EXPECT_EQ(A.ConnectPath, B.ConnectPath);
  EXPECT_TRUE(A.Baseline == B.Baseline);
  EXPECT_FALSE(parseBenchArgs({"--no-cache"}).CacheEnabled);
}

/// Anything outside a binary's table is refused before work starts: the
/// message names the argument and the usage follows.
TEST(BenchFlagsDeathTest, ArgumentsOutsideTheTableExitWithUsage) {
  const std::pair<std::vector<std::string>, const char *> Cases[] = {
      {{"--thredas", "4"}, "unknown flag '--thredas'"},
      {{"--threads", "4", "extra"}, "unexpected argument 'extra'"},
      {{"--seed", "1", "--threads"}, "flag '--threads' requires a value"},
      {{"--no-cache=1"}, "flag '--no-cache=1' takes no value"},
      // Every pipeline runs the precompiled engine; only khaos-fuzz
      // takes --vm.
      {{"--vm", "reference"}, "unknown flag '--vm'"},
  };
  for (const auto &Case : Cases)
    EXPECT_EXIT(parseBenchArgs(Case.first), ::testing::ExitedWithCode(2),
                std::string("bench: ") + Case.second +
                    "\nusage: bench \\[flags\\]\n  --threads N")
        << Case.first[0];
}

/// --help and -h print the table on stdout and exit 0. The statement
/// points stdout at the stream the matcher reads and stderr at /dev/null,
/// so the text matches only when it was printed on stdout.
TEST(BenchFlagsDeathTest, HelpPrintsTheTableOnStdout) {
  for (const char *Help : {"--help", "-h"})
    EXPECT_EXIT(
        {
          int Null = ::open("/dev/null", O_WRONLY);
          ::dup2(STDERR_FILENO, STDOUT_FILENO);
          ::dup2(Null, STDERR_FILENO);
          parseBenchArgs({"--threads", "4", Help, "--thredas"});
        },
        ::testing::ExitedWithCode(0),
        "^usage: bench \\[flags\\]\n  --threads N +scheduler worker "
        "threads.*\n  --compiler-style S\\[,S...\\] baseline lowering.*\n"
        "  -h, --help +print this usage text and exit\n$")
        << Help;
}

/// The --tools row matches registry names case-insensitively, keeps their
/// canonical spelling and runs each tool once; absent, it leaves the
/// bench's default.
TEST(BenchFlags, ToolsRowResolvesRegistryNamesOnce) {
  std::vector<std::string> Tools = {"BinDiff", "semdiff"};
  parseBenchArgs({"--threads", "2"}, {toolsFlag(Tools, "bench")});
  EXPECT_EQ(Tools, (std::vector<std::string>{"BinDiff", "semdiff"}));
  parseBenchArgs({"--tools", "safe,bindiff,SAFE,,Safe-OOP"},
                 {toolsFlag(Tools, "bench")});
  EXPECT_EQ(Tools, (std::vector<std::string>{"SAFE", "BinDiff", "safe-oop"}));
}

TEST(BenchFlagsDeathTest, ToolsRowRejectsUnknownNames) {
  std::vector<std::string> Tools;
  EXPECT_EXIT(parseBenchArgs({"--tools=SAFE,nosuchtool"},
                             {toolsFlag(Tools, "bench")}),
              ::testing::ExitedWithCode(2),
              "unknown diffing tool 'nosuchtool' in --tools");
  EXPECT_EXIT(parseBenchArgs({"--tools", ","}, {toolsFlag(Tools, "bench")}),
              ::testing::ExitedWithCode(2),
              "--tools requires at least one tool name");
}

/// Every front-end that runs a pipeline builds it from pipelineConfig(),
/// so a parsed baseline reaches it (bench_vm_engines once copied five
/// fields by hand and kept running O2).
TEST(BenchFlags, PipelineConfigCarriesTheParsedBaseline) {
  EvalPipeline::Config PC =
      parseBenchArgs({"--baseline-opt", "O0", "--compiler-style", "gcc",
                      "--no-cache", "--store-max-bytes", "4096",
                      "--cache-dir", "kc", "--disk-max-bytes", "8192"})
          .pipelineConfig();
  EXPECT_EQ(PC.Baseline.Level, OptLevel::O0);
  EXPECT_EQ(PC.Baseline.Codegen.Style, CompilerStyle::GccLike);
  EXPECT_FALSE(PC.CacheEnabled);
  EXPECT_EQ(PC.StoreMaxBytes, 4096u);
  EXPECT_EQ(PC.CacheDir, "kc");
  EXPECT_EQ(PC.DiskMaxBytes, 8192u);
}

//===----------------------------------------------------------------------===//
// DiffTool registry
//===----------------------------------------------------------------------===//

TEST(ToolRegistry, PaperToolsRegisteredInTableOrder) {
  std::vector<std::string> Names = registeredToolNames();
  ASSERT_GE(Names.size(), 5u);
  EXPECT_EQ(Names[0], "BinDiff");
  EXPECT_EQ(Names[1], "VulSeeker");
  EXPECT_EQ(Names[2], "Asm2Vec");
  EXPECT_EQ(Names[3], "SAFE");
  EXPECT_EQ(Names[4], "DeepBinDiff");
  for (const std::string &Name : Names) {
    EXPECT_TRUE(isDiffToolRegistered(Name));
    std::unique_ptr<DiffTool> Tool = createDiffTool(Name);
    ASSERT_NE(Tool, nullptr);
    EXPECT_EQ(Tool->getName(), Name);
  }
  EXPECT_FALSE(isDiffToolRegistered("bogus"));
  EXPECT_EQ(tryCreateDiffTool("bogus"), nullptr);
}

TEST(ToolRegistryDeathTest, CreateUnknownToolFailsLoudly) {
  EXPECT_DEATH(createDiffTool("bogus"), "unknown diffing tool 'bogus'");
}

namespace {

/// Minimal backend used to exercise registration: ranks B functions in
/// index order for every A function.
class EchoTool : public DiffTool {
public:
  const char *getName() const override { return "TestEcho"; }
  ToolTraits getTraits() const override { return {}; }
  DiffResult diff(const BinaryImage &A, const ImageFeatures &,
                  const BinaryImage &B,
                  const ImageFeatures &) const override {
    DiffResult R;
    R.Rankings.resize(A.Functions.size());
    for (auto &Ranking : R.Rankings)
      for (uint32_t I = 0; I != B.Functions.size(); ++I)
        Ranking.push_back(I);
    R.WholeBinarySimilarity = 1.0;
    return R;
  }
};

} // namespace

// Runs last in this file (gtest executes in declaration order within a
// suite file): registering mutates the global registry.
TEST(ToolRegistry, NewBackendSlotsIntoTheMatrix) {
  EXPECT_TRUE(registerDiffTool("TestEcho",
                               [] { return std::make_unique<EchoTool>(); }));
  // Duplicate registration is rejected.
  EXPECT_FALSE(registerDiffTool("TestEcho",
                                [] { return std::make_unique<EchoTool>(); }));
  EXPECT_TRUE(isDiffToolRegistered("TestEcho"));
  EXPECT_EQ(registeredToolNames().back(), "TestEcho");

  // The new backend is immediately usable by the matrix front-end.
  std::vector<Workload> Suite = smallSuite(1);
  EvalScheduler Sched({/*Threads=*/2, /*Seed=*/0xc906});
  auto Cells = Sched.precisionMatrix(
      Suite, {ObfuscationMode::Sub}, {"TestEcho"});
  ASSERT_EQ(Cells.size(), 1u);
  ASSERT_TRUE(Cells[0].Ok);
  ASSERT_EQ(Cells[0].PerTool.size(), 1u);
  EXPECT_GE(Cells[0].PerTool[0], 0.0);
}

} // namespace
