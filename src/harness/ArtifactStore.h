//===- harness/ArtifactStore.h - Content-addressed artifacts ----*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-safe, content-addressed store for evaluation-pipeline artifacts.
/// Every artifact is a pure function of its key — (workload name, mode,
/// seed, stage, options fingerprint) — so re-runs, sibling modes and
/// sibling (cell × tool) tasks can share one computation:
///
///   * each workload's source is compiled once (the Frontend stage), and
///     every module a stage builds — the baseline at each level, the
///     fission stage, every obfuscation mode's cell — is a clone of it,
///   * the un-obfuscated baseline (and its A-side image) is built once per
///     workload and shared by all obfuscation modes,
///   * the five diffing tools of one cell diff the same cached image pair.
///
/// Lookups are single-flight: the first requester of a key computes the
/// artifact outside the store lock while later requesters block on a
/// shared future, so no artifact is ever computed twice — and with the
/// store disabled (--no-cache) every request computes, which keeps cached
/// and uncached runs on the same code path and byte-identical output.
///
/// Retention is bounded by an optional LRU byte cap (Config::MaxBytes,
/// default unbounded): when the per-artifact cost accounting exceeds the
/// cap, least-recently-used *completed* artifacts are dropped. In-flight
/// computations are pinned — eviction never breaks a single-flight wait —
/// and because every artifact is a pure function of its key, an evicted
/// stage transparently recomputes on the next request, so a byte-capped
/// run produces byte-identical results to an unbounded one.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_HARNESS_ARTIFACTSTORE_H
#define KHAOS_HARNESS_ARTIFACTSTORE_H

#include "obfuscation/KhaosDriver.h"

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <typeindex>
#include <vector>

namespace khaos {

/// The pipeline stages whose outputs are worth sharing. Stage is part of
/// the artifact key, and the store keeps hit/miss counters per stage.
enum class ArtifactStage : uint8_t {
  Baseline,        ///< Optimized un-obfuscated module (a Frontend clone).
  BaselineRun,     ///< VM execution of the O2 baseline (cost/stdout/exit).
  BaselineImage,   ///< Lowered A-side BinaryImage + ImageFeatures.
  FissionStage,    ///< Post-fission module (a Frontend clone + fission),
                   ///< for sepFunc counts; obfuscate() never reads it.
  ObfuscatedImage, ///< Lowered B-side BinaryImage + ImageFeatures.
  DiffOutcome,     ///< One tool's result over a cell's image pair — the
                   ///< key subprocess backends cache under, so a warm
                   ///< re-run performs zero worker round trips.
  PrecompiledModule, ///< Bytecode lowering of the O2 baseline: decoded
                     ///< once, shared by every precompiled-engine run of
                     ///< the workload.
  Frontend,          ///< Unoptimized module + Context of one source,
                     ///< keyed by its fingerprint: the only compile, which
                     ///< every module-building stage clones. Appended so
                     ///< the stage numbers (and .art addresses) before it
                     ///< stay put.
  NumStages,
};

/// Printable stage name for telemetry.
const char *artifactStageName(ArtifactStage Stage);

/// Identity of one artifact: the tuple the artifact is a pure function of.
/// \c Extra fingerprints stage-specific options (opt level, codegen style,
/// fission options) and \c SourceHash fingerprints the workload's MiniC
/// source, so neither incompatible configurations nor two workloads that
/// merely share a name can alias.
struct ArtifactKey {
  std::string Workload;
  ObfuscationMode Mode = ObfuscationMode::None;
  uint64_t Seed = 0;
  ArtifactStage Stage = ArtifactStage::Baseline;
  uint64_t Extra = 0;
  uint64_t SourceHash = 0;

  bool operator<(const ArtifactKey &O) const;
  bool operator==(const ArtifactKey &O) const;

  /// The content address: an FNV-1a mix of every field. Collisions are
  /// harmless for correctness (the store compares full keys); the address
  /// exists for telemetry and cross-process artifact naming.
  uint64_t address() const;
};

class DiskCache;

/// Byte-level (de)serialization of one artifact type for the disk tier.
/// Stages whose artifacts hold live LLVM-analogue state (modules,
/// contexts) have no codec and simply never persist; stages that are
/// plain data (run results, images, diff outcomes) register one in
/// Evaluator.cpp. Encode may decline (return false) — the policy hook
/// that keeps transient failures (e.g. a worker timeout's error
/// artifact) from becoming permanent on disk. Decode returns null on a
/// malformed payload; the store then counts the entry corrupt and
/// recomputes.
struct ArtifactCodec {
  std::function<bool(const void *Value, std::vector<uint8_t> &Out)> Encode;
  std::function<std::shared_ptr<const void>(const uint8_t *Data,
                                            size_t Size)>
      Decode;
};

class ArtifactStore {
public:
  struct Config {
    /// false = --no-cache: every request recomputes (counted as a miss)
    /// and the disk tier is bypassed entirely.
    bool Enabled = true;
    /// LRU byte cap over the per-artifact CostBytes accounting;
    /// 0 = unbounded (--store-max-bytes).
    uint64_t MaxBytes = 0;
    /// Disk-tier directory; empty = no disk tier (--cache-dir).
    std::string CacheDir = {};
    /// Disk-tier LRU byte cap over stored file sizes; 0 = unbounded
    /// (--disk-max-bytes).
    uint64_t DiskMaxBytes = 0;
  };

  struct StageCounters {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    /// Disk-tier counters. A memory miss that loads from disk is a
    /// DiskHit (the stage's Misses still counts the memory miss, so
    /// existing memory-tier assertions keep their meaning); DiskCorrupt
    /// entries (validation failures) also count as DiskMisses since the
    /// artifact had to be recomputed.
    uint64_t DiskHits = 0;
    uint64_t DiskMisses = 0;
    uint64_t DiskEvictions = 0;
    uint64_t DiskCorrupt = 0;

    /// Counter-wise sum and difference.
    StageCounters &operator+=(const StageCounters &O);
    StageCounters &operator-=(const StageCounters &O);
  };

  /// Monotonic counter snapshot. Matrix runs diff two snapshots to report
  /// per-run telemetry while the store itself lives across runs. The
  /// inherited counters are the totals: the sum over PerStage, derived
  /// by stats(), delta() and operator+=, never counted on their own.
  struct Snapshot : StageCounters {
    StageCounters PerStage[static_cast<size_t>(ArtifactStage::NumStages)];
    /// Bytes of MiniC source whose recompilation hits avoided.
    uint64_t BytesSaved = 0;

    StageCounters stage(ArtifactStage S) const {
      return PerStage[static_cast<size_t>(S)];
    }
    /// Counter-wise After - Before.
    static Snapshot delta(const Snapshot &After, const Snapshot &Before);
    /// Counter-wise sum: folds another run's delta into this one.
    Snapshot &operator+=(const Snapshot &O);
  };

  /// A disabled store never retains anything: every request recomputes
  /// (counted as a miss), which is what --no-cache runs use.
  explicit ArtifactStore(bool Enabled = true)
      : ArtifactStore(Config{Enabled, 0, {}, 0}) {}
  explicit ArtifactStore(Config C);
  ~ArtifactStore();

  bool enabled() const { return Cfg.Enabled; }
  uint64_t maxBytes() const { return Cfg.MaxBytes; }
  /// The disk tier, if configured (test/telemetry hook).
  DiskCache *diskCache() const { return Disk.get(); }

  /// Returns the artifact for \p K, computing it with \p Compute on first
  /// request. \p CostBytes is the recompilation cost a future hit on this
  /// key avoids (by convention the workload's MiniC source size).
  ///
  /// \p Compute must be a pure function of the key; it runs outside the
  /// store lock. Failed computations are artifacts too (e.g. a
  /// CompiledWorkload carrying its frontend error), so failures are
  /// computed once like successes, never retried.
  ///
  /// When a \p Codec is given and the disk tier is configured, a memory
  /// miss first consults the disk: a validated stored payload decodes in
  /// place of \p Compute, and a computed value is written back for the
  /// next process. Without a codec the key is memory-only.
  template <typename T>
  std::shared_ptr<const T>
  getOrCompute(const ArtifactKey &K, uint64_t CostBytes,
               const std::function<std::shared_ptr<const T>()> &Compute,
               const ArtifactCodec *Codec = nullptr) {
    return std::static_pointer_cast<const T>(getOrComputeErased(
        K, CostBytes, std::type_index(typeid(T)),
        [&Compute]() -> std::shared_ptr<const void> { return Compute(); },
        Codec));
  }

  /// Current counters (cheap copy under the lock).
  Snapshot stats() const;

  /// Number of retained artifacts.
  size_t size() const;

  /// Sum of the retained (and in-flight) artifacts' CostBytes — the value
  /// the MaxBytes cap bounds.
  uint64_t totalBytes() const;

  /// True while \p K is retained (ready or in-flight). Test hook for the
  /// eviction-order assertions; racy by nature under concurrent use.
  bool contains(const ArtifactKey &K) const;

  /// Drops every artifact (counters are kept: they are monotonic).
  void clear();

private:
  std::shared_ptr<const void>
  getOrComputeErased(const ArtifactKey &K, uint64_t CostBytes,
                     std::type_index Type,
                     const std::function<std::shared_ptr<const void>()> &F,
                     const ArtifactCodec *Codec);

  /// Disk-tier lookup for a first requester (memory miss). Returns the
  /// decoded value or null, updating disk counters.
  std::shared_ptr<const void> diskLoad(const ArtifactKey &K,
                                       const ArtifactCodec *Codec);

  /// Writes a freshly computed value through to the disk tier.
  void diskStore(const ArtifactKey &K, const void *Value,
                 const ArtifactCodec *Codec);

  struct Entry {
    std::shared_future<std::shared_ptr<const void>> Value;
    std::type_index Type;
    uint64_t CostBytes = 0;
    /// LRU clock: monotonically increasing use tick, updated on every
    /// hit. Eviction drops the ready entry with the smallest tick.
    uint64_t LastUse = 0;
    /// Set once the computing thread fulfilled the future. An entry that
    /// is not ready is pinned: evicting it would break the single-flight
    /// wait of every concurrent requester.
    bool Ready = false;
  };

  /// Evicts LRU ready entries until TotalBytes fits MaxBytes (requires M
  /// held). Pinned (in-flight) entries are skipped.
  void trimLocked();

  /// Marks K ready after its compute fulfilled the future (no-op if a
  /// concurrent clear() dropped the entry), then trims.
  void markReady(const ArtifactKey &K);

  const Config Cfg;
  /// The disk tier (null without Config::CacheDir). Its I/O happens
  /// outside \c M, on the first-requester path only.
  std::unique_ptr<DiskCache> Disk;
  mutable std::mutex M;
  std::map<ArtifactKey, Entry> Artifacts;
  /// The counters, one set per stage; stats() derives the totals.
  StageCounters Stages[static_cast<size_t>(ArtifactStage::NumStages)];
  uint64_t BytesSaved = 0;
  uint64_t UseTick = 0;
  uint64_t TotalBytes = 0;
};

} // namespace khaos

#endif // KHAOS_HARNESS_ARTIFACTSTORE_H
