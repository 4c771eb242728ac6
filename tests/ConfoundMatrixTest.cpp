//===- tests/ConfoundMatrixTest.cpp - Build-config axis tests -------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The build-config confound axis contract: per-config baselines are
/// isolated in the memory and disk cache tiers (O0 and O2 artifacts never
/// alias, nor do clang-like and gcc-like lowerings of the same level), a
/// warm confound run recompiles nothing (exactly one baseline
/// compile per (workload, config), ever), the union of sharded confound
/// runs equals the unsharded run, thread count does not change a single
/// number, and the semdiff backend is registered with its subprocess twin.
///
//===----------------------------------------------------------------------===//

#include "harness/EvalScheduler.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

using namespace khaos;

namespace {

std::vector<Workload> smallSuite(size_t N = 2) {
  std::vector<Workload> All = coreUtilsSuite();
  return std::vector<Workload>(All.begin(), All.begin() + N);
}

/// Fresh empty cache directory under the gtest temp root.
std::string freshDir(const char *Tag) {
  static int Counter = 0;
  std::string Dir = ::testing::TempDir() + "khaos-confound-" + Tag + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(++Counter);
  DIR *D = ::opendir(Dir.c_str());
  if (D) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((Dir + "/" + Name).c_str());
    }
    ::closedir(D);
    ::rmdir(Dir.c_str());
  }
  return Dir;
}

const std::vector<ObfuscationMode> TestModes = {
    ObfuscationMode::None, ObfuscationMode::Sub, ObfuscationMode::FuFiAll};
const std::vector<std::string> TestTools = {"BinDiff", "semdiff"};

std::vector<BuildConfig> twoLevels() {
  return {BuildConfig::forLevel(OptLevel::O0),
          BuildConfig::forLevel(OptLevel::O2)};
}

//===----------------------------------------------------------------------===//
// Per-config cache isolation
//===----------------------------------------------------------------------===//

TEST(ConfoundCache, PerConfigBaselinesNeverAliasInMemory) {
  Workload W = smallSuite(1).front();
  EvalPipeline Pipe;
  auto I0 = Pipe.baselineImage(W, BuildConfig::forLevel(OptLevel::O0));
  auto I2 = Pipe.baselineImage(W, BuildConfig::forLevel(OptLevel::O2));
  ASSERT_TRUE(I0->Ok);
  ASSERT_TRUE(I2->Ok);

  // Two configs, two artifacts — and genuinely different images (O0
  // spills everything; an aliased cache entry would hand both configs the
  // same binary).
  ArtifactStore::Snapshot S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).Misses, 2u);
  EXPECT_NE(I0->Image.opcodeHistogram(), I2->Image.opcodeHistogram());

  // Codegen deviations are part of the key too, not just the level.
  BuildConfig NoLea = BuildConfig::forLevel(OptLevel::O2);
  NoLea.Codegen.UseLea = false;
  auto I2NoLea = Pipe.baselineImage(W, NoLea);
  ASSERT_TRUE(I2NoLea->Ok);
  S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).Misses, 3u);

  // Re-requests are per-config hits, byte-for-byte the first answer.
  auto I0Again = Pipe.baselineImage(W, BuildConfig::forLevel(OptLevel::O0));
  EXPECT_EQ(I0Again->Image.opcodeHistogram(), I0->Image.opcodeHistogram());
  S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).Misses, 3u);
  EXPECT_GE(S.stage(ArtifactStage::BaselineImage).Hits, 1u);
}

TEST(ConfoundCache, PerConfigBaselinesNeverAliasOnDisk) {
  Workload W = smallSuite(1).front();
  std::string Dir = freshDir("aliasing");

  std::vector<double> H0, H2;
  {
    EvalPipeline Cold(EvalPipeline::Config{
        /*CacheEnabled=*/true, 0, VMEngine::Precompiled, Dir, 0});
    auto I0 = Cold.baselineImage(W, BuildConfig::forLevel(OptLevel::O0));
    auto I2 = Cold.baselineImage(W, BuildConfig::forLevel(OptLevel::O2));
    ASSERT_TRUE(I0->Ok);
    ASSERT_TRUE(I2->Ok);
    H0 = I0->Image.opcodeHistogram();
    H2 = I2->Image.opcodeHistogram();
    ASSERT_NE(H0, H2);
    EXPECT_EQ(Cold.store()
                  .stats()
                  .stage(ArtifactStage::BaselineImage)
                  .DiskMisses,
              2u);
  }

  // A second pipeline on the same cache dir serves both configs from
  // disk — no compile at either level, each config its own artifact.
  EvalPipeline Warm(EvalPipeline::Config{
      /*CacheEnabled=*/true, 0, VMEngine::Precompiled, Dir, 0});
  auto J0 = Warm.baselineImage(W, BuildConfig::forLevel(OptLevel::O0));
  auto J2 = Warm.baselineImage(W, BuildConfig::forLevel(OptLevel::O2));
  ASSERT_TRUE(J0->Ok);
  ASSERT_TRUE(J2->Ok);
  EXPECT_EQ(J0->Image.opcodeHistogram(), H0);
  EXPECT_EQ(J2->Image.opcodeHistogram(), H2);
  ArtifactStore::Snapshot S = Warm.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).DiskHits, 2u);
  EXPECT_EQ(S.stage(ArtifactStage::Baseline).Misses, 0u);
}

/// The compiler-style axis: an O2+clang and an O2+gcc baseline of the
/// SAME workload at the SAME level are distinct cache entries with
/// genuinely different lowerings.
TEST(ConfoundCache, PerStyleBaselinesNeverAliasInMemory) {
  Workload W = smallSuite(1).front();
  BuildConfig Clang = BuildConfig::forLevel(OptLevel::O2);
  BuildConfig Gcc = BuildConfig::forLevel(OptLevel::O2);
  Gcc.Codegen.Style = CompilerStyle::GccLike;

  EvalPipeline Pipe;
  auto IC = Pipe.baselineImage(W, Clang);
  auto IG = Pipe.baselineImage(W, Gcc);
  ASSERT_TRUE(IC->Ok);
  ASSERT_TRUE(IG->Ok);

  ArtifactStore::Snapshot S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).Misses, 2u);
  EXPECT_NE(IC->Image.opcodeHistogram(), IG->Image.opcodeHistogram());

  // Re-requesting either style is a hit on its own entry.
  auto IGAgain = Pipe.baselineImage(W, Gcc);
  EXPECT_EQ(IGAgain->Image.opcodeHistogram(), IG->Image.opcodeHistogram());
  S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).Misses, 2u);
  EXPECT_GE(S.stage(ArtifactStage::BaselineImage).Hits, 1u);
}

TEST(ConfoundCache, PerStyleBaselinesNeverAliasOnDisk) {
  Workload W = smallSuite(1).front();
  std::string Dir = freshDir("style-aliasing");
  BuildConfig Clang = BuildConfig::forLevel(OptLevel::O2);
  BuildConfig Gcc = BuildConfig::forLevel(OptLevel::O2);
  Gcc.Codegen.Style = CompilerStyle::GccLike;

  std::vector<double> HC, HG;
  {
    EvalPipeline Cold(EvalPipeline::Config{
        /*CacheEnabled=*/true, 0, VMEngine::Precompiled, Dir, 0});
    auto IC = Cold.baselineImage(W, Clang);
    auto IG = Cold.baselineImage(W, Gcc);
    ASSERT_TRUE(IC->Ok);
    ASSERT_TRUE(IG->Ok);
    HC = IC->Image.opcodeHistogram();
    HG = IG->Image.opcodeHistogram();
    ASSERT_NE(HC, HG);
    EXPECT_EQ(Cold.store()
                  .stats()
                  .stage(ArtifactStage::BaselineImage)
                  .DiskMisses,
              2u);
  }

  // Warm pipeline on the same cache dir: each style round-trips to its
  // own disk artifact, byte-for-byte, with zero recompiles.
  EvalPipeline Warm(EvalPipeline::Config{
      /*CacheEnabled=*/true, 0, VMEngine::Precompiled, Dir, 0});
  auto JC = Warm.baselineImage(W, Clang);
  auto JG = Warm.baselineImage(W, Gcc);
  ASSERT_TRUE(JC->Ok);
  ASSERT_TRUE(JG->Ok);
  EXPECT_EQ(JC->Image.opcodeHistogram(), HC);
  EXPECT_EQ(JG->Image.opcodeHistogram(), HG);
  ArtifactStore::Snapshot S = Warm.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).DiskHits, 2u);
  EXPECT_EQ(S.stage(ArtifactStage::Baseline).Misses, 0u);
}

//===----------------------------------------------------------------------===//
// The confound matrix
//===----------------------------------------------------------------------===//

TEST(ConfoundMatrix, WarmRunPerformsZeroBaselineRecompiles) {
  std::vector<Workload> Suite = smallSuite(2);
  std::vector<BuildConfig> Configs = twoLevels();

  EvalScheduler Sched({/*Threads=*/4, /*Seed=*/0xc906});
  EvalRunStats ColdRun;
  auto Cold =
      Sched.confoundMatrix(Suite, Configs, TestModes, TestTools, &ColdRun);
  ASSERT_EQ(Cold.size(), Suite.size() * Configs.size() * TestModes.size());
  for (const auto &Cell : Cold) {
    ASSERT_TRUE(Cell.Ran);
    ASSERT_TRUE(Cell.Ok);
    ASSERT_EQ(Cell.PerToolPrecision.size(), TestTools.size());
    ASSERT_EQ(Cell.PerToolSimilarity.size(), TestTools.size());
  }

  // Exactly one baseline compile per (workload, config) across the whole
  // matrix: the obfuscated side reuses the O2 baseline, every cell of a
  // config reuses that config's image.
  ArtifactStore::Snapshot AfterCold = Sched.pipeline().store().stats();
  EXPECT_EQ(AfterCold.stage(ArtifactStage::Baseline).Misses,
            Suite.size() * Configs.size());
  EXPECT_EQ(AfterCold.stage(ArtifactStage::BaselineImage).Misses,
            Suite.size() * Configs.size());

  // The warm re-run recomputes nothing at all and reproduces every number.
  EvalRunStats WarmRun;
  auto Warm =
      Sched.confoundMatrix(Suite, Configs, TestModes, TestTools, &WarmRun);
  ArtifactStore::Snapshot Delta = ArtifactStore::Snapshot::delta(
      Sched.pipeline().store().stats(), AfterCold);
  EXPECT_EQ(Delta.Misses, 0u);
  EXPECT_GT(Delta.Hits, 0u);
  EXPECT_EQ(WarmRun.Cache.Misses, 0u);
  ASSERT_EQ(Warm.size(), Cold.size());
  for (size_t I = 0; I != Cold.size(); ++I) {
    EXPECT_EQ(Warm[I].Ok, Cold[I].Ok);
    EXPECT_EQ(Warm[I].PerToolPrecision, Cold[I].PerToolPrecision) << I;
    EXPECT_EQ(Warm[I].PerToolSimilarity, Cold[I].PerToolSimilarity) << I;
  }
}

TEST(ConfoundMatrix, UnionOfShardsEqualsUnshardedRun) {
  std::vector<Workload> Suite = smallSuite(2);
  std::vector<BuildConfig> Configs = twoLevels();

  EvalScheduler Full({/*Threads=*/4, /*Seed=*/0xc906});
  auto Unsharded = Full.confoundMatrix(Suite, Configs, TestModes, TestTools);

  const unsigned Shards = 3;
  std::vector<EvalScheduler::ConfoundCell> Union(Unsharded.size());
  size_t RanCells = 0;
  for (unsigned SI = 0; SI != Shards; ++SI) {
    EvalScheduler::Config C;
    C.Threads = 4;
    C.Seed = 0xc906;
    C.Shards = Shards;
    C.ShardIdx = SI;
    EvalScheduler Shard(C);
    auto Part = Shard.confoundMatrix(Suite, Configs, TestModes, TestTools);
    ASSERT_EQ(Part.size(), Unsharded.size());
    for (size_t I = 0; I != Part.size(); ++I) {
      EXPECT_EQ(Part[I].Ran, I % Shards == SI);
      if (!Part[I].Ran)
        continue;
      Union[I] = Part[I];
      ++RanCells;
    }
  }

  EXPECT_EQ(RanCells, Unsharded.size());
  for (size_t I = 0; I != Unsharded.size(); ++I) {
    EXPECT_TRUE(Union[I].Ran);
    EXPECT_EQ(Union[I].Ok, Unsharded[I].Ok);
    EXPECT_EQ(Union[I].PerToolPrecision, Unsharded[I].PerToolPrecision)
        << "cell " << I;
    EXPECT_EQ(Union[I].PerToolSimilarity, Unsharded[I].PerToolSimilarity)
        << "cell " << I;
  }
}

TEST(ConfoundMatrix, ThreadCountDoesNotChangeResults) {
  std::vector<Workload> Suite = smallSuite(2);
  std::vector<BuildConfig> Configs = twoLevels();

  EvalScheduler One({/*Threads=*/1, /*Seed=*/0xc906});
  EvalScheduler Eight({/*Threads=*/8, /*Seed=*/0xc906});
  auto A = One.confoundMatrix(Suite, Configs, TestModes, TestTools);
  auto B = Eight.confoundMatrix(Suite, Configs, TestModes, TestTools);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Ok, B[I].Ok);
    EXPECT_EQ(A[I].PerToolPrecision, B[I].PerToolPrecision) << "cell " << I;
    EXPECT_EQ(A[I].PerToolSimilarity, B[I].PerToolSimilarity)
        << "cell " << I;
  }
}

//===----------------------------------------------------------------------===//
// semdiff registration
//===----------------------------------------------------------------------===//

TEST(SemDiffRegistration, InRosterWithSubprocessTwin) {
  // semdiff runs in-process only; safe-oop alone proves the subprocess
  // adapter.
  EXPECT_TRUE(isDiffToolRegistered("semdiff"));
  std::unique_ptr<DiffTool> Tool = createDiffTool("semdiff");
  ASSERT_NE(Tool, nullptr);
  EXPECT_STREQ(Tool->getName(), "semdiff");
  EXPECT_TRUE(Tool->getTraits().UsesCallGraph);
}

} // namespace
