//===- tests/ArtifactStoreEvictionTest.cpp - LRU byte-cap tests --------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ArtifactStore's LRU byte cap: eviction follows recency (hits
/// refresh an artifact), in-flight single-flight computations are pinned
/// and survive any cap pressure, concurrent get/evict traffic is safe
/// (run the SlowStress case under TSan/ASan), and a byte-capped scheduler
/// run transparently recomputes evicted stages — identical results, with
/// the evictions visible in the reportScheduler telemetry counters.
///
//===----------------------------------------------------------------------===//

#include "harness/ArtifactStore.h"
#include "harness/EvalScheduler.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <thread>

using namespace khaos;

namespace {

ArtifactKey key(const std::string &Name, uint64_t Extra = 0) {
  ArtifactKey K;
  K.Workload = Name;
  K.Stage = ArtifactStage::Baseline;
  K.Extra = Extra;
  return K;
}

/// getOrCompute of an int artifact, counting real computations.
std::shared_ptr<const int> getInt(ArtifactStore &S, const ArtifactKey &K,
                                  uint64_t Cost, int Value,
                                  std::atomic<int> &Computes) {
  return S.getOrCompute<int>(K, Cost, [&]() -> std::shared_ptr<const int> {
    Computes.fetch_add(1);
    return std::make_shared<int>(Value);
  });
}

TEST(ArtifactStoreEviction, LruOrderRespectedUnderTightCap) {
  ArtifactStore S(ArtifactStore::Config{true, /*MaxBytes=*/100, {}, 0});
  std::atomic<int> Computes{0};

  auto A = getInt(S, key("A"), 40, 1, Computes);
  auto B = getInt(S, key("B"), 40, 2, Computes);
  EXPECT_EQ(S.totalBytes(), 80u);
  // Touch A: B becomes the least recently used.
  EXPECT_EQ(*getInt(S, key("A"), 40, 1, Computes), 1);
  EXPECT_EQ(Computes.load(), 2);

  // C pushes the total to 120 > 100: exactly the LRU entry (B) goes.
  auto C = getInt(S, key("C"), 40, 3, Computes);
  EXPECT_EQ(Computes.load(), 3);
  EXPECT_TRUE(S.contains(key("A")));
  EXPECT_TRUE(S.contains(key("C")));
  EXPECT_FALSE(S.contains(key("B")));
  EXPECT_EQ(S.totalBytes(), 80u);

  // The evicted artifact transparently recomputes — and evicts A, now
  // the coldest.
  EXPECT_EQ(*getInt(S, key("B"), 40, 2, Computes), 2);
  EXPECT_EQ(Computes.load(), 4);
  EXPECT_FALSE(S.contains(key("A")));

  ArtifactStore::Snapshot Stats = S.stats();
  EXPECT_EQ(Stats.Evictions, 2u);
  EXPECT_EQ(Stats.stage(ArtifactStage::Baseline).Evictions, 2u);
  // Old shared_ptrs handed out before eviction stay valid.
  EXPECT_EQ(*A + *B + *C, 6);
}

TEST(ArtifactStoreEviction, UnboundedStoreNeverEvicts) {
  ArtifactStore S(ArtifactStore::Config{true, /*MaxBytes=*/0, {}, 0});
  std::atomic<int> Computes{0};
  for (int I = 0; I != 50; ++I) {
    // Append-style concat sidesteps a GCC 12 -Wrestrict false positive
    // on operator+(const char *, std::string&&).
    std::string Name = "k";
    Name += std::to_string(I);
    getInt(S, key(Name), 1 << 20, I, Computes);
  }
  EXPECT_EQ(S.size(), 50u);
  EXPECT_EQ(S.stats().Evictions, 0u);
}

TEST(ArtifactStoreEviction, InFlightComputationIsPinned) {
  ArtifactStore S(ArtifactStore::Config{true, /*MaxBytes=*/50, {}, 0});

  std::mutex M;
  std::condition_variable CV;
  bool Started = false, Release = false;
  std::atomic<int> Computes{0};

  // A compute that blocks mid-flight: its entry must be pinned against
  // any cap pressure (evicting it would strand single-flight waiters).
  std::shared_ptr<const int> Result;
  std::thread T([&] {
    Result = S.getOrCompute<int>(
        key("X"), 40, [&]() -> std::shared_ptr<const int> {
          Computes.fetch_add(1);
          {
            std::unique_lock<std::mutex> Lock(M);
            Started = true;
            CV.notify_all();
            CV.wait(Lock, [&] { return Release; });
          }
          return std::make_shared<int>(7);
        });
  });
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Started; });
  }

  // Hammer the cap while X is in flight. Each of these is itself over
  // the cap once X's 40 bytes are accounted, so they evict (only)
  // themselves or each other — never X.
  std::atomic<int> OtherComputes{0};
  for (int I = 0; I != 8; ++I)
    getInt(S, key("filler" + std::to_string(I)), 40, I, OtherComputes);
  EXPECT_TRUE(S.contains(key("X")));
  EXPECT_GT(S.stats().Evictions, 0u);

  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  CV.notify_all();
  T.join();
  ASSERT_TRUE(Result);
  EXPECT_EQ(*Result, 7);

  // X completed and was retained (40 <= 50 once the fillers evicted):
  // the next request is a hit, not a recompute.
  std::atomic<int> After{0};
  EXPECT_EQ(*getInt(S, key("X"), 40, 0, After), 7);
  EXPECT_EQ(After.load(), 0);
  EXPECT_EQ(Computes.load(), 1);
}

TEST(ArtifactStoreEviction, BoundedSchedulerRunMatchesUnbounded) {
  std::vector<Workload> All = coreUtilsSuite();
  std::vector<Workload> Suite(All.begin(), All.begin() + 2);
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Sub,
                                              ObfuscationMode::Fission};
  const std::vector<std::string> Tools = {"Asm2Vec"};

  EvalScheduler Unbounded({/*Threads=*/4, /*Seed=*/0xc906});
  EvalRunStats FreeRun;
  auto Expected = Unbounded.precisionMatrix(Suite, Modes, Tools, &FreeRun);
  EXPECT_EQ(FreeRun.Cache.Evictions, 0u);

  // A 1-byte cap evicts every artifact the moment it completes: the run
  // degenerates to recompute-per-use but must produce identical numbers,
  // and the telemetry the benches print must show the evictions.
  EvalScheduler::Config C;
  C.Threads = 4;
  C.Seed = 0xc906;
  C.StoreMaxBytes = 1;
  EvalScheduler Bounded(C);
  EvalRunStats TightRun;
  auto Got = Bounded.precisionMatrix(Suite, Modes, Tools, &TightRun);

  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].Ok, Expected[I].Ok);
    EXPECT_EQ(Got[I].PerTool, Expected[I].PerTool) << "cell " << I;
  }
  EXPECT_GT(TightRun.Cache.Evictions, 0u);
  EXPECT_EQ(TightRun.Cache.Evictions,
            Bounded.pipeline().store().stats().Evictions);

  // A warm re-run on the bounded store recomputes (nothing was
  // retained) — still byte-identical.
  auto Warm = Bounded.precisionMatrix(Suite, Modes, Tools);
  for (size_t I = 0; I != Warm.size(); ++I)
    EXPECT_EQ(Warm[I].PerTool, Expected[I].PerTool);
  EXPECT_LE(Bounded.pipeline().store().totalBytes(),
            Bounded.pipeline().store().maxBytes() + 1);
}

/// Concurrency soak: 8 threads hammer 64 keys through a cap that fits
/// only ~10 of them, so hits, misses, single-flight waits and evictions
/// interleave constantly. Run under TSan/ASan in CI; labeled slow so the
/// default ctest wall-clock stays lean.
TEST(ArtifactStoreEviction, MultithreadedGetEvictSlowStress) {
  ArtifactStore S(ArtifactStore::Config{true, /*MaxBytes=*/500, {}, 0});
  constexpr int Threads = 8;
  constexpr int Iters = 1500;
  constexpr int Keys = 64;

  std::atomic<int> Computes{0};
  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int I = 0; I != Iters; ++I) {
        int KeyIdx = (I * 31 + T * 17) % Keys;
        std::shared_ptr<const int> V =
            getInt(S, key("stress", KeyIdx), 50, KeyIdx, Computes);
        ASSERT_TRUE(V);
        // The value must always match its key, however the eviction and
        // single-flight traffic interleaved.
        ASSERT_EQ(*V, KeyIdx);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  ArtifactStore::Snapshot Stats = S.stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses,
            static_cast<uint64_t>(Threads) * Iters);
  EXPECT_EQ(static_cast<uint64_t>(Computes.load()), Stats.Misses);
  EXPECT_GT(Stats.Evictions, 0u);
  EXPECT_LE(Stats.Evictions, Stats.Misses);
  // Once everything completed, retention respects the cap.
  EXPECT_LE(S.totalBytes(), 500u);
}

} // namespace
