//===- tests/DiskCacheTest.cpp - On-disk artifact tier tests --------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The disk tier's contract: round trips, the self-validating envelope
/// (truncation, bit flips and wrong versions are detected, discarded and
/// recomputed — never crash, never serve stale bytes), address-collision
/// safety, the LRU byte cap, and the ArtifactStore-level guarantee that
/// memory-only, cold-disk and warm-disk runs produce bit-identical
/// artifacts with failures never persisted.
///
//===----------------------------------------------------------------------===//

#include "harness/DiskCache.h"
#include "harness/Evaluator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace khaos;

namespace {

/// Fresh empty cache directory under the gtest temp root.
std::string freshDir(const char *Tag) {
  static int Counter = 0;
  std::string Dir = ::testing::TempDir() + "khaos-diskcache-" + Tag + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(++Counter);
  // Start clean even if a previous crashed run left the name behind.
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

ArtifactKey sampleKey(const std::string &Workload, uint64_t Seed) {
  ArtifactKey K;
  K.Workload = Workload;
  K.Mode = ObfuscationMode::Fission;
  K.Seed = Seed;
  K.Stage = ArtifactStage::DiffOutcome;
  K.Extra = 0x1234;
  K.SourceHash = 0xabcd;
  return K;
}

/// Path of the single .art file in \p Dir (fails the test if not 1).
std::string onlyArtFile(const std::string &Dir) {
  std::string Found;
  int Count = 0;
  DIR *D = ::opendir(Dir.c_str());
  EXPECT_NE(D, nullptr);
  if (!D)
    return {};
  while (dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 4 && Name.rfind(".art") == Name.size() - 4) {
      Found = Dir + "/" + Name;
      ++Count;
    }
  }
  ::closedir(D);
  EXPECT_EQ(Count, 1);
  return Found;
}

/// The on-disk file name DiskCache::pathFor would pick for \p K.
std::string artFileName(const ArtifactKey &K) {
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(K.address()));
  return std::string(artifactStageName(K.Stage)) + "-" + Hex + ".art";
}

/// Pins both timestamps of \p Path to an exact (sec, nsec) pair.
void setMtimeNs(const std::string &Path, time_t Sec, long Nsec) {
  timespec Times[2];
  Times[0].tv_sec = Sec;
  Times[0].tv_nsec = Nsec;
  Times[1] = Times[0];
  ASSERT_EQ(::utimensat(AT_FDCWD, Path.c_str(), Times, 0), 0);
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good());
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

TEST(DiskCache, RoundTripAndMiss) {
  DiskCache Cache({freshDir("roundtrip"), 0});
  ArtifactKey K = sampleKey("wl", 7);
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};

  std::vector<uint8_t> Got;
  EXPECT_EQ(Cache.get(K, Got), DiskGetStatus::Miss);

  EXPECT_EQ(Cache.put(K, Payload), 0u);
  EXPECT_EQ(Cache.fileCount(), 1u);
  EXPECT_EQ(Cache.get(K, Got), DiskGetStatus::Hit);
  EXPECT_EQ(Got, Payload);

  // A different key (same stage, different seed) is a clean miss.
  EXPECT_EQ(Cache.get(sampleKey("wl", 8), Got), DiskGetStatus::Miss);
}

TEST(DiskCache, PersistsAcrossInstances) {
  std::string Dir = freshDir("persist");
  ArtifactKey K = sampleKey("persist-wl", 1);
  std::vector<uint8_t> Payload = {9, 8, 7};
  {
    DiskCache Writer({Dir, 0});
    Writer.put(K, Payload);
  }
  DiskCache Reader({Dir, 0});
  EXPECT_EQ(Reader.fileCount(), 1u);
  std::vector<uint8_t> Got;
  EXPECT_EQ(Reader.get(K, Got), DiskGetStatus::Hit);
  EXPECT_EQ(Got, Payload);
}

/// The envelope layout is a cross-process format: magic and version live
/// at fixed offsets (little-endian), and the overall size is exactly
/// header + key + length-prefixed payload. Pinning it here means a layout
/// change must bump DiskCacheVersion instead of silently corrupting
/// caches written by older binaries.
TEST(DiskCache, EnvelopeLayoutIsPinned) {
  std::string Dir = freshDir("layout");
  DiskCache Cache({Dir, 0});
  ArtifactKey K = sampleKey("ab", 3); // 2-byte workload name.
  std::vector<uint8_t> Payload = {0x11, 0x22, 0x33};
  Cache.put(K, Payload);

  std::vector<uint8_t> Bytes = readFileBytes(onlyArtFile(Dir));
  // u32 magic + u16 version + u64 checksum.
  ASSERT_GE(Bytes.size(), 14u);
  EXPECT_EQ(Bytes[0], 0x31); // "KDC1" little-endian: '1' 'C' 'D' 'K'.
  EXPECT_EQ(Bytes[1], 0x43);
  EXPECT_EQ(Bytes[2], 0x44);
  EXPECT_EQ(Bytes[3], 0x4B);
  EXPECT_EQ(Bytes[4], DiskCacheVersion & 0xff);
  EXPECT_EQ(Bytes[5], DiskCacheVersion >> 8);
  // Key: u32 len + "ab" + u8 mode + u64 seed + u8 stage + u64 extra +
  // u64 source-hash = 4 + 2 + 1 + 8 + 1 + 8 + 8 = 32 bytes; payload:
  // u32 len + 3 bytes.
  EXPECT_EQ(Bytes.size(), 14u + 32u + 4u + Payload.size());
}

TEST(DiskCache, TruncatedFileIsCorruptAndDeleted) {
  std::string Dir = freshDir("truncated");
  DiskCache Cache({Dir, 0});
  ArtifactKey K = sampleKey("trunc-wl", 2);
  Cache.put(K, std::vector<uint8_t>(64, 0x5a));

  std::string Path = onlyArtFile(Dir);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  Bytes.resize(Bytes.size() / 2);
  writeFileBytes(Path, Bytes);

  std::vector<uint8_t> Got;
  EXPECT_EQ(Cache.get(K, Got), DiskGetStatus::Corrupt);
  // The corrupt file is gone: the next lookup is a clean miss and a
  // re-put works.
  EXPECT_EQ(::access(Path.c_str(), F_OK), -1);
  EXPECT_EQ(Cache.get(K, Got), DiskGetStatus::Miss);
  Cache.put(K, {1, 2, 3});
  EXPECT_EQ(Cache.get(K, Got), DiskGetStatus::Hit);
}

TEST(DiskCache, BitFlipIsCorruptAndDeleted) {
  std::string Dir = freshDir("bitflip");
  DiskCache Cache({Dir, 0});
  ArtifactKey K = sampleKey("flip-wl", 3);
  Cache.put(K, std::vector<uint8_t>(32, 0x77));

  std::string Path = onlyArtFile(Dir);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  Bytes.back() ^= 0x01; // Flip one payload bit; the checksum catches it.
  writeFileBytes(Path, Bytes);

  std::vector<uint8_t> Got;
  EXPECT_EQ(Cache.get(K, Got), DiskGetStatus::Corrupt);
  EXPECT_EQ(::access(Path.c_str(), F_OK), -1);
}

TEST(DiskCache, WrongVersionIsCorruptAndDeleted) {
  std::string Dir = freshDir("version");
  DiskCache Cache({Dir, 0});
  ArtifactKey K = sampleKey("ver-wl", 4);
  Cache.put(K, {42});

  std::string Path = onlyArtFile(Dir);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  Bytes[4] = DiskCacheVersion + 1; // Future format version.
  writeFileBytes(Path, Bytes);

  std::vector<uint8_t> Got;
  EXPECT_EQ(Cache.get(K, Got), DiskGetStatus::Corrupt);
  EXPECT_EQ(::access(Path.c_str(), F_OK), -1);
}

/// The 64-bit filename address is telemetry-grade: when two keys collide
/// on it, the full key embedded in the file disambiguates. Renaming a
/// valid file onto another key's address simulates the collision — it
/// must read as a Miss (not the other key's bytes) and must NOT delete
/// the innocent file.
TEST(DiskCache, AddressCollisionReadsAsMissAndKeepsFile) {
  std::string Dir = freshDir("collision");
  DiskCache Cache({Dir, 0});
  ArtifactKey A = sampleKey("coll-a", 5);
  ArtifactKey B = sampleKey("coll-b", 6);
  Cache.put(A, {1, 1, 1});

  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(B.address()));
  std::string APath = onlyArtFile(Dir);
  std::string BPath =
      Dir + "/" + artifactStageName(B.Stage) + "-" + Hex + ".art";
  ASSERT_EQ(::rename(APath.c_str(), BPath.c_str()), 0);

  // A fresh instance indexes the renamed file, looks up B, finds A's key
  // inside and treats it as absent.
  DiskCache Fresh({Dir, 0});
  std::vector<uint8_t> Got;
  EXPECT_EQ(Fresh.get(B, Got), DiskGetStatus::Miss);
  EXPECT_EQ(::access(BPath.c_str(), F_OK), 0);
}

TEST(DiskCache, LRUEvictionHonorsRecency) {
  std::string Dir = freshDir("lru");
  DiskCache Cache({Dir, 0});
  ArtifactKey K1 = sampleKey("lru-1", 1);
  ArtifactKey K2 = sampleKey("lru-2", 2);
  ArtifactKey K3 = sampleKey("lru-3", 3);
  std::vector<uint8_t> Payload(64, 0xaa);
  Cache.put(K1, Payload);
  Cache.put(K2, Payload);
  uint64_t PerFile = Cache.totalBytes() / 2;

  // Rebuild with a cap that fits two files; touch K1 so K2 is coldest.
  DiskCache Bounded({Dir, PerFile * 2 + 1});
  std::vector<uint8_t> Got;
  EXPECT_EQ(Bounded.get(K1, Got), DiskGetStatus::Hit);
  EXPECT_EQ(Bounded.put(K3, Payload), 1u); // Evicts exactly one file.
  EXPECT_EQ(Bounded.get(K2, Got), DiskGetStatus::Miss);
  EXPECT_EQ(Bounded.get(K1, Got), DiskGetStatus::Hit);
  EXPECT_EQ(Bounded.get(K3, Got), DiskGetStatus::Hit);
}

/// Three artifacts written within the same wall-clock second, where the
/// file whose name sorts LAST is the true stalest. Whole-second mtimes
/// would tie all three and the name tiebreak would evict the wrong file;
/// the nanosecond seed must evict by actual write recency.
TEST(DiskCache, StartupSeedOrdersSameSecondWritesByNanosecond) {
  std::string Dir = freshDir("nsmtime");
  ArtifactKey Keys[3] = {sampleKey("ns-1", 1), sampleKey("ns-2", 2),
                         sampleKey("ns-3", 3)};
  std::vector<uint8_t> Payload(64, 0xbb);
  uint64_t PerFile;
  {
    DiskCache Writer({Dir, 0});
    for (const ArtifactKey &K : Keys)
      Writer.put(K, Payload);
    PerFile = Writer.totalBytes() / 3; // Equal-size files by construction.
  }

  // Map name-sorted position -> key index, then make the name-sorted-last
  // file the stalest inside one shared second.
  std::vector<std::pair<std::string, int>> Named;
  for (int I = 0; I != 3; ++I)
    Named.push_back({artFileName(Keys[I]), I});
  std::sort(Named.begin(), Named.end());
  setMtimeNs(Dir + "/" + Named[0].first, 1000000, 300);
  setMtimeNs(Dir + "/" + Named[1].first, 1000000, 200);
  setMtimeNs(Dir + "/" + Named[2].first, 1000000, 100);

  // Cap fits the three seeded files; the fourth put evicts exactly one.
  DiskCache Bounded({Dir, PerFile * 3 + 1});
  EXPECT_EQ(Bounded.put(sampleKey("ns-4", 4), Payload), 1u);

  std::vector<uint8_t> Got;
  EXPECT_EQ(Bounded.get(Keys[Named[2].second], Got), DiskGetStatus::Miss);
  EXPECT_EQ(Bounded.get(Keys[Named[0].second], Got), DiskGetStatus::Hit);
  EXPECT_EQ(Bounded.get(Keys[Named[1].second], Got), DiskGetStatus::Hit);
}

/// Genuinely identical timestamps (a filesystem that truncates them, or a
/// copied cache directory): the seed order falls back to the name
/// tiebreak, so every process picks the same eviction victim.
TEST(DiskCache, StartupSeedBreaksIdenticalMtimesByName) {
  std::string Dir = freshDir("mtime-tie");
  ArtifactKey Keys[3] = {sampleKey("tie-1", 1), sampleKey("tie-2", 2),
                         sampleKey("tie-3", 3)};
  std::vector<uint8_t> Payload(64, 0xcc);
  uint64_t PerFile;
  {
    DiskCache Writer({Dir, 0});
    for (const ArtifactKey &K : Keys)
      Writer.put(K, Payload);
    PerFile = Writer.totalBytes() / 3;
  }

  std::vector<std::pair<std::string, int>> Named;
  for (int I = 0; I != 3; ++I)
    Named.push_back({artFileName(Keys[I]), I});
  std::sort(Named.begin(), Named.end());
  for (const auto &P : Named)
    setMtimeNs(Dir + "/" + P.first, 2000000, 500);

  DiskCache Bounded({Dir, PerFile * 3 + 1});
  EXPECT_EQ(Bounded.put(sampleKey("tie-4", 4), Payload), 1u);

  // The name-sorted-first file is the deterministic victim.
  std::vector<uint8_t> Got;
  EXPECT_EQ(Bounded.get(Keys[Named[0].second], Got), DiskGetStatus::Miss);
  EXPECT_EQ(Bounded.get(Keys[Named[1].second], Got), DiskGetStatus::Hit);
  EXPECT_EQ(Bounded.get(Keys[Named[2].second], Got), DiskGetStatus::Hit);
}

TEST(DiskCache, OversizePayloadIsNotStored) {
  DiskCache Cache({freshDir("oversize"), 32});
  ArtifactKey K = sampleKey("big-wl", 9);
  EXPECT_EQ(Cache.put(K, std::vector<uint8_t>(1024, 1)), 0u);
  EXPECT_EQ(Cache.fileCount(), 0u);
  std::vector<uint8_t> Got;
  EXPECT_EQ(Cache.get(K, Got), DiskGetStatus::Miss);
}

TEST(DiskCache, StaleTmpFilesAreSweptAtStartup) {
  std::string Dir = freshDir("tmpsweep");
  {
    DiskCache Mk({Dir, 0}); // Creates the directory.
  }
  std::string Tmp = Dir + "/diff-outcome-0000000000000000.art.999-1.tmp";
  writeFileBytes(Tmp, {1, 2, 3});
  DiskCache Cache({Dir, 0});
  EXPECT_EQ(::access(Tmp.c_str(), F_OK), -1);
  EXPECT_EQ(Cache.fileCount(), 0u);
}

//===----------------------------------------------------------------------===//
// ArtifactStore integration: the memory → disk → compute fall-through.
//===----------------------------------------------------------------------===//

struct Blob {
  bool Ok = true;
  std::string Data;
};

ArtifactCodec blobCodec() {
  ArtifactCodec C;
  C.Encode = [](const void *V, std::vector<uint8_t> &Out) {
    const Blob *B = static_cast<const Blob *>(V);
    if (!B->Ok)
      return false; // Failures never persist.
    Out.assign(B->Data.begin(), B->Data.end());
    return true;
  };
  C.Decode = [](const uint8_t *Data,
                size_t Size) -> std::shared_ptr<const void> {
    auto B = std::make_shared<Blob>();
    B->Ok = true;
    B->Data.assign(reinterpret_cast<const char *>(Data), Size);
    return B;
  };
  return C;
}

TEST(ArtifactStoreDisk, WarmStoreLoadsWithoutRecompute) {
  std::string Dir = freshDir("store-warm");
  ArtifactKey K = sampleKey("store-wl", 11);
  ArtifactCodec Codec = blobCodec();
  int Computes = 0;
  std::function<std::shared_ptr<const Blob>()> Compute =
      [&Computes]() -> std::shared_ptr<const Blob> {
    ++Computes;
    auto B = std::make_shared<Blob>();
    B->Data = "payload-bytes";
    return B;
  };

  {
    ArtifactStore Cold(ArtifactStore::Config{true, 0, Dir, 0});
    auto V = Cold.getOrCompute<Blob>(K, 10, Compute, &Codec);
    EXPECT_EQ(V->Data, "payload-bytes");
    EXPECT_EQ(Computes, 1);
    ArtifactStore::Snapshot S = Cold.stats();
    EXPECT_EQ(S.DiskMisses, 1u);
    EXPECT_EQ(S.DiskHits, 0u);
    // Memory-tier semantics are untouched by the disk tier.
    EXPECT_EQ(S.Misses, 1u);
  }

  // A new process (fresh store, same directory): memory misses, disk
  // hits, the compute callback never runs, bytes are identical.
  ArtifactStore Warm(ArtifactStore::Config{true, 0, Dir, 0});
  auto V = Warm.getOrCompute<Blob>(K, 10, Compute, &Codec);
  EXPECT_EQ(V->Data, "payload-bytes");
  EXPECT_EQ(Computes, 1);
  ArtifactStore::Snapshot S = Warm.stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.DiskMisses, 0u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.stage(K.Stage).DiskHits, 1u);
}

TEST(ArtifactStoreDisk, FailureArtifactsNeverPersist) {
  std::string Dir = freshDir("store-fail");
  ArtifactKey K = sampleKey("fail-wl", 12);
  ArtifactCodec Codec = blobCodec();
  int Computes = 0;
  std::function<std::shared_ptr<const Blob>()> ComputeFail =
      [&Computes]() -> std::shared_ptr<const Blob> {
    ++Computes;
    auto B = std::make_shared<Blob>();
    B->Ok = false; // A transient failure (e.g. worker timeout).
    return B;
  };

  {
    ArtifactStore Cold(ArtifactStore::Config{true, 0, Dir, 0});
    auto V = Cold.getOrCompute<Blob>(K, 10, ComputeFail, &Codec);
    EXPECT_FALSE(V->Ok);
    EXPECT_EQ(Cold.diskCache()->fileCount(), 0u);
  }

  // The next process retries the computation instead of loading a
  // persisted failure.
  ArtifactStore Retry(ArtifactStore::Config{true, 0, Dir, 0});
  Retry.getOrCompute<Blob>(K, 10, ComputeFail, &Codec);
  EXPECT_EQ(Computes, 2);
}

TEST(ArtifactStoreDisk, CorruptEntryIsRecomputedTransparently) {
  std::string Dir = freshDir("store-corrupt");
  ArtifactKey K = sampleKey("corrupt-wl", 13);
  ArtifactCodec Codec = blobCodec();
  int Computes = 0;
  std::function<std::shared_ptr<const Blob>()> Compute =
      [&Computes]() -> std::shared_ptr<const Blob> {
    ++Computes;
    auto B = std::make_shared<Blob>();
    B->Data = "recomputable";
    return B;
  };

  {
    ArtifactStore Cold(ArtifactStore::Config{true, 0, Dir, 0});
    Cold.getOrCompute<Blob>(K, 10, Compute, &Codec);
  }
  // Flip a payload bit on disk behind the store's back.
  std::string Path = onlyArtFile(Dir);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  Bytes.back() ^= 0x10;
  writeFileBytes(Path, Bytes);

  ArtifactStore Warm(ArtifactStore::Config{true, 0, Dir, 0});
  auto V = Warm.getOrCompute<Blob>(K, 10, Compute, &Codec);
  EXPECT_EQ(V->Data, "recomputable"); // Served fresh, not stale bytes.
  EXPECT_EQ(Computes, 2);
  ArtifactStore::Snapshot S = Warm.stats();
  EXPECT_EQ(S.DiskCorrupt, 1u);
  EXPECT_EQ(S.DiskMisses, 1u); // Corrupt counts as a miss too.
  // The recomputed value was written back: a third store hits.
  ArtifactStore Third(ArtifactStore::Config{true, 0, Dir, 0});
  Third.getOrCompute<Blob>(K, 10, Compute, &Codec);
  EXPECT_EQ(Computes, 2);
  EXPECT_EQ(Third.stats().DiskHits, 1u);
}

TEST(ArtifactStoreDisk, DisabledStoreBypassesDisk) {
  std::string Dir = freshDir("store-disabled");
  ArtifactKey K = sampleKey("disabled-wl", 14);
  ArtifactCodec Codec = blobCodec();
  int Computes = 0;
  std::function<std::shared_ptr<const Blob>()> Compute =
      [&Computes]() -> std::shared_ptr<const Blob> {
    ++Computes;
    return std::make_shared<Blob>();
  };

  ArtifactStore S(ArtifactStore::Config{/*Enabled=*/false, 0, Dir, 0});
  S.getOrCompute<Blob>(K, 10, Compute, &Codec);
  S.getOrCompute<Blob>(K, 10, Compute, &Codec);
  EXPECT_EQ(Computes, 2); // --no-cache computes every request...
  ArtifactStore::Snapshot Snap = S.stats();
  EXPECT_EQ(Snap.DiskHits + Snap.DiskMisses, 0u); // ...touching no disk.
}

//===----------------------------------------------------------------------===//
// Pipeline-level bit-identity: memory-only vs cold-disk vs warm-disk.
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreDisk, PipelineColdWarmAndMemoryOnlyAgree) {
  std::string Dir = freshDir("pipeline");
  Workload W = specCpu2006Suite().front();
  ObfuscationMode Mode = ObfuscationMode::Fission;
  uint64_t Seed = 0xc906;
  auto Diff = [&](EvalPipeline &P) {
    return P.diffOutcome(W, Mode, Seed, "SAFE", P.baselineImage(W),
                         P.obfuscatedImage(W, Mode, Seed));
  };

  EvalPipeline Memory(EvalPipeline::Config{true, 0,
                                           VMEngine::Precompiled, {}, 0});
  auto MemRun = Memory.baselineRun(W);
  auto MemDiff = Diff(Memory);

  EvalPipeline Cold(EvalPipeline::Config{true, 0, VMEngine::Precompiled,
                                         Dir, 0});
  auto ColdRun = Cold.baselineRun(W);
  auto ColdDiff = Diff(Cold);
  ASSERT_TRUE(ColdRun->Ok);
  ASSERT_TRUE(ColdDiff->Ok);

  EvalPipeline Warm(EvalPipeline::Config{true, 0, VMEngine::Precompiled,
                                         Dir, 0});
  auto WarmRun = Warm.baselineRun(W);
  auto WarmDiff = Diff(Warm);

  // Warm really came from disk, not recompute.
  ArtifactStore::Snapshot S = Warm.store().stats();
  EXPECT_GE(S.DiskHits, 2u);
  EXPECT_EQ(S.DiskMisses, 0u);

  EXPECT_TRUE(MemRun->Run == ColdRun->Run);
  EXPECT_TRUE(ColdRun->Run == WarmRun->Run);
  EXPECT_EQ(MemDiff->Outcome.Precision, ColdDiff->Outcome.Precision);
  EXPECT_EQ(ColdDiff->Outcome.Precision, WarmDiff->Outcome.Precision);
  EXPECT_EQ(MemDiff->Outcome.Similarity, ColdDiff->Outcome.Similarity);
  EXPECT_EQ(ColdDiff->Outcome.Similarity, WarmDiff->Outcome.Similarity);
  EXPECT_EQ(ColdDiff->Outcome.Raw.Rankings, WarmDiff->Outcome.Raw.Rankings);
  EXPECT_EQ(MemDiff->Outcome.Raw.Rankings, ColdDiff->Outcome.Raw.Rankings);
}

/// Every .art file a cold pipeline writes for one SplitBB cell — the
/// BaselineRun, both ImageArtifacts (the obfuscated one with a non-empty
/// PassReport) and the DiffOutcome — pinned by name and by bytes. The
/// names pin ArtifactKey::address(), the bytes the KDC1 envelope, the
/// embedded key and every field of the three stage payloads: a cache
/// directory written by one revision must be served warm by the next.
TEST(ArtifactStoreDisk, ArtFileNamesAndBytesArePinned) {
  const std::map<std::string, std::string> Pinned = {
      {"baseline-image-522a78f2409ab502.art", "24379:91fced61756954dc"},
      {"baseline-run-26e6227ea80d4204.art", "112:55f0df0279ffb7d9"},
      {"diff-outcome-e5bf2ae891faf6b5.art", "170:aed17758e7f6aecd"},
      {"obfuscated-image-7a27f0af3e0caf30.art", "46463:82e2cbd3dce48b49"},
  };
  std::string Dir = freshDir("pins");
  Workload W = coreUtilsSuite().front();
  const ObfuscationMode Mode = ObfuscationMode::SplitBB;
  const uint64_t Seed = 0xc906;
  EvalPipeline Cold(EvalPipeline::Config{true, 0, VMEngine::Precompiled,
                                         Dir, 0});
  ASSERT_TRUE(Cold.baselineRun(W)->Ok);
  auto Base = Cold.baselineImage(W);
  ASSERT_TRUE(Base->Ok);
  auto Obf = Cold.obfuscatedImage(W, Mode, Seed);
  ASSERT_TRUE(Obf->Ok);
  EXPECT_FALSE(Obf->Report.empty());
  ASSERT_TRUE(Cold.diffOutcome(W, Mode, Seed, "SAFE", Base, Obf)->Ok);

  std::map<std::string, std::string> Got;
  DIR *D = ::opendir(Dir.c_str());
  ASSERT_NE(D, nullptr);
  while (dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() <= 4 || Name.rfind(".art") != Name.size() - 4)
      continue;
    std::vector<uint8_t> Bytes = readFileBytes(Dir + "/" + Name);
    uint64_t H = 0xcbf29ce484222325ull;
    for (uint8_t B : Bytes) {
      H ^= B;
      H *= 0x100000001b3ull;
    }
    char Digest[48];
    std::snprintf(Digest, sizeof(Digest), "%zu:%016llx", Bytes.size(),
                  static_cast<unsigned long long>(H));
    Got[Name] = Digest;
  }
  ::closedir(D);
  EXPECT_EQ(Got, Pinned);
}

} // namespace
