//===- harness/EvalScheduler.h - Parallel evaluation batches ----*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch engine over the EvalPipeline: fans the (workload ×
/// ObfuscationMode) matrix — and, for diffing, the (cell × tool) task
/// plane — across a std::thread pool. Four properties make parallel runs
/// bit-for-bit reproducible at any thread count, shard decomposition and
/// cache setting:
///
///  1. Per-task isolation — every cell compiles into its own
///     Context/Module; shared pipeline artifacts are immutable and
///     consumers clone before mutating.
///  2. Deterministic seeding — each cell's RNG seed is derived from
///     (base seed, workload name, mode), never from scheduling order.
///  3. Deterministic aggregation — per-task results land at their
///     row-major matrix index; shared run statistics are merged under a
///     mutex and are integer counters, so merge order cannot change them.
///  4. Schedule-independent artifacts — every cached artifact is a pure
///     function of its key, and cached/uncached runs share one code path.
///
/// Cross-process sharding: cells are partitioned by FlatIdx % Shards, and
/// a scheduler configured with (Shards, ShardIdx) executes only its own
/// cells (results for foreign cells keep Ran == false). Because per-cell
/// seeds are scheduling-independent, the union of all shards' results is
/// cell-for-cell identical to an unsharded run.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_HARNESS_EVALSCHEDULER_H
#define KHAOS_HARNESS_EVALSCHEDULER_H

#include "harness/EvalService.h"
#include "harness/Evaluator.h"

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace khaos {

/// One cell of the (workload × mode) evaluation matrix.
struct EvalCell {
  const Workload *W = nullptr;
  ObfuscationMode Mode = ObfuscationMode::None;
  uint64_t Seed = 0;       ///< Derived via deriveCellSeed().
  size_t WorkloadIdx = 0;  ///< Row: position of W in the workload list.
  size_t ModeIdx = 0;      ///< Column: position of Mode in the mode list.
  size_t FlatIdx = 0;      ///< Row-major index into the matrix.
};

/// One task of the (cell × tool) plane: one diffing tool over one cell.
/// Heavy tools (DeepBinDiff, VulSeeker — Table 1's time+memory column) get
/// their own pool slots instead of serializing inside a cell worker; the
/// cell's image pair is built once in the ArtifactStore and shared.
struct EvalTask {
  EvalCell Cell;
  size_t ToolIdx = 0; ///< Position in the tool list.
};

/// Derives the per-cell seed from the run's base seed, the workload's name
/// and the mode — stable across thread counts and scheduling orders.
uint64_t deriveCellSeed(uint64_t BaseSeed, const std::string &WorkloadName,
                        ObfuscationMode Mode);

/// Aggregate counters for one scheduler run, merged under a mutex by the
/// batch front-ends. All fields are integral, so the merge order that the
/// pool happens to produce cannot change the totals.
struct EvalRunStats {
  size_t Cells = 0;    ///< Cells executed (owned by this shard).
  size_t Failures = 0; ///< Cells whose compile/measure step failed.
  /// (cell × tool) tasks whose tool failed at runtime (subprocess worker
  /// timeout/crash). The cell's other tools still report; the failed
  /// task renders as "n/a".
  size_t ToolFailures = 0;
  FissionStats Fission;
  FusionStats Fusion;
  /// Per-pass potency/cost totals (MBA sites, encrypted strings, block
  /// splits, byte growth) folded in from every cell's ObfuscationResult.
  PassReport Passes;

  // Cache telemetry, folded in from the ArtifactStore after each matrix
  // run (reportScheduler prints it on stderr; stdout stays byte-identical).
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0; ///< LRU evictions under --store-max-bytes.
  uint64_t CacheBytesSaved = 0; ///< Bytes of recompilation avoided.
  // Disk-tier telemetry (--cache-dir); all zero without a disk tier.
  uint64_t DiskHits = 0;
  uint64_t DiskMisses = 0;
  uint64_t DiskEvictions = 0; ///< File evictions under --disk-max-bytes.
  uint64_t DiskCorrupt = 0;   ///< Invalid on-disk artifacts discarded.

  /// Thread-safe: folds one cell's transformation stats into the totals.
  void mergeCell(const ObfuscationResult &R, bool Failed);

  /// Thread-safe: counts a cell that produced no transformation stats
  /// (e.g. an overhead measurement).
  void countCell(bool Failed);

  /// Thread-safe: folds one image's pass telemetry into the totals
  /// without counting a cell (the cell×tool planes count cells in their
  /// deterministic post-pass instead).
  void mergePasses(const PassReport &R);

  /// Thread-safe: counts one failed (cell × tool) task.
  void countToolFailure();

  /// Thread-safe: folds an ArtifactStore counter delta into the totals.
  void mergeCache(const ArtifactStore::Snapshot &Delta);

private:
  std::mutex M;
};

class EvalScheduler {
public:
  struct Config {
    unsigned Threads = 0;  ///< 0 = hardware concurrency.
    uint64_t Seed = 0xc906;
    bool CacheEnabled = true; ///< false = --no-cache (recompute per use).
    unsigned Shards = 1;      ///< Total shard count (cross-process split).
    unsigned ShardIdx = 0;    ///< This process's shard in [0, Shards).
    uint64_t StoreMaxBytes = 0; ///< ArtifactStore LRU cap (0 = unbounded).
    /// VM engine for every execution this scheduler's pipeline performs
    /// (--vm reference|precompiled). Both engines produce byte-identical
    /// stdout, so shard merging is engine-agnostic.
    VMEngine Engine = VMEngine::Precompiled;
    /// Persistent disk tier for the pipeline's store (--cache-dir);
    /// empty = memory-only.
    std::string CacheDir = {};
    /// Disk-tier byte cap (--disk-max-bytes); 0 = unbounded.
    uint64_t DiskMaxBytes = 0;
    /// khaos-evald socket (--connect); when set, the overhead and
    /// (cell × tool) matrix front-ends execute their cells on the daemon
    /// against its shared warm store instead of in-process. Per-cell
    /// seeds are derived locally and shipped in the request, so remote
    /// results — and bench stdout — are byte-identical to in-process
    /// runs. The constructor pings the daemon and aborts on a
    /// configuration mismatch (engine, cache setting or baseline build
    /// config), which would silently break that identity.
    std::string ConnectPath = {};
    /// The default baseline build config for every front-end that does
    /// not sweep the axis explicitly (--baseline-opt / --codegen).
    /// Forwarded to the pipeline and checked against the daemon's ping.
    BuildConfig Baseline = {};
  };

  explicit EvalScheduler(Config C);
  EvalScheduler() : EvalScheduler(Config{}) {}
  ~EvalScheduler();

  /// True when matrix cells execute on a khaos-evald daemon (--connect).
  bool remote() const { return !Cfg.ConnectPath.empty(); }

  /// The worker count actually used (>= 1).
  unsigned threadCount() const { return Workers; }
  uint64_t baseSeed() const { return Cfg.Seed; }
  unsigned shardCount() const { return Cfg.Shards; }
  unsigned shardIndex() const { return Cfg.ShardIdx; }

  /// True if this scheduler's shard owns \p FlatIdx.
  bool ownsCell(size_t FlatIdx) const {
    return FlatIdx % Cfg.Shards == Cfg.ShardIdx;
  }

  /// The pipeline whose ArtifactStore backs every matrix run of this
  /// scheduler (telemetry, tests, and direct stage access for benches).
  EvalPipeline &pipeline() const { return *Pipe; }

  /// Runs \p Fn over every owned cell of the matrix on the pool. \p Fn
  /// executes concurrently: it must confine itself to per-cell state or
  /// lock any shared state it touches.
  void forEachCell(const std::vector<Workload> &Workloads,
                   const std::vector<ObfuscationMode> &Modes,
                   const std::function<void(const EvalCell &)> &Fn) const;

  /// Runs \p Fn over the (owned cell × tool index) task plane — the unit
  /// benches use when per-tool work dominates per-cell work. Tasks are
  /// handed out tool-major: every owned cell's ToolIdx-0 task, then every
  /// ToolIdx-1 task, and so on.
  void forEachCellTask(const std::vector<Workload> &Workloads,
                       const std::vector<ObfuscationMode> &Modes,
                       size_t NumTools,
                       const std::function<void(const EvalTask &)> &Fn) const;

  //===--------------------------------------------------------------------===//
  // Batch front-ends over the EvalPipeline stages. Result vectors always
  // have one slot per matrix cell; slots of cells owned by other shards
  // keep Ran == false and are otherwise default-initialized.
  //===--------------------------------------------------------------------===//

  /// Compiled cell: the obfuscated module plus its transformation stats.
  struct CellCompilation {
    bool Ran = false;
    CompiledWorkload Compiled;
    ObfuscationResult Stats;
  };

  /// EvalPipeline::obfuscate() over the whole matrix.
  std::vector<CellCompilation>
  compileMatrix(const std::vector<Workload> &Workloads,
                const std::vector<ObfuscationMode> &Modes,
                EvalRunStats *RunStats = nullptr) const;

  /// Runtime overhead of one cell; Ok=false when compile/run/verify failed.
  struct CellOverhead {
    bool Ran = false;
    bool Ok = false;
    double Percent = 0.0;
  };

  /// EvalPipeline::overheadPercent() over the whole matrix.
  std::vector<CellOverhead>
  overheadMatrix(const std::vector<Workload> &Workloads,
                 const std::vector<ObfuscationMode> &Modes,
                 EvalRunStats *RunStats = nullptr) const;

  /// Per-cell diffing result: Precision@1 of each tool in \p ToolNames
  /// order, or a negative sentinel when the image pair could not be built.
  struct CellPrecision {
    bool Ran = false;
    bool Ok = false;
    std::vector<double> PerTool;
  };

  /// Diffing over the (cell × tool) task plane: each task fetches the
  /// cell's shared image pair from the ArtifactStore (built once per cell)
  /// and runs one registry tool over it, so heavy tools never serialize a
  /// cell. Every entry of \p ToolNames must be registered (hard error
  /// otherwise — a silent mismatch would render as an all-zero figure row).
  std::vector<CellPrecision>
  precisionMatrix(const std::vector<Workload> &Workloads,
                  const std::vector<ObfuscationMode> &Modes,
                  const std::vector<std::string> &ToolNames,
                  EvalRunStats *RunStats = nullptr) const;

  /// Per-cell search ranks of the workload's vulnerable functions — the
  /// escape@k / Table-3 front-end (fig10, table3). PerTool[toolIdx] is
  /// parallel to Workload::VulnFunctions (UINT32_MAX = not found) and
  /// empty when the cell's images could not be built.
  struct CellRanks {
    bool Ran = false;
    bool Ok = false;
    std::vector<std::vector<uint32_t>> PerTool;
  };

  /// trueMatchRank over the (cell × tool) task plane, sharing each cell's
  /// cached image pair exactly like precisionMatrix. Tool names must be
  /// registered (hard error otherwise).
  std::vector<CellRanks>
  vulnRankMatrix(const std::vector<Workload> &Workloads,
                 const std::vector<ObfuscationMode> &Modes,
                 const std::vector<std::string> &ToolNames,
                 EvalRunStats *RunStats = nullptr) const;

  /// One cell of the (workload × baseline config × mode) confound matrix.
  /// Sentinel -1.0 marks a tool that failed at runtime.
  struct ConfoundCell {
    bool Ran = false;
    bool Ok = false;
    std::vector<double> PerToolPrecision;
    std::vector<double> PerToolSimilarity;
  };

  /// The confound front-end: diffs every (workload, baseline config,
  /// mode, tool) combination, so a figure can separate what the *build
  /// delta* does to a tool (Mode == None columns) from what the
  /// *obfuscation* adds on top. Cells are row-major over
  /// (workload, config, mode) — Flat = (WI * NumConfigs + CI) * NumModes
  /// + MI — and sharded/executed with precisionMatrix's determinism
  /// guarantees. Per-cell seeds are derived from (workload, mode) alone,
  /// deliberately config-independent: every config row diffs against the
  /// *same* obfuscated B-side, so a warm sweep over N configs builds each
  /// obfuscated image once and each baseline once per config, nothing
  /// more. Works in --connect mode (the per-cell config travels in the
  /// DiffTask request).
  std::vector<ConfoundCell>
  confoundMatrix(const std::vector<Workload> &Workloads,
                 const std::vector<BuildConfig> &Configs,
                 const std::vector<ObfuscationMode> &Modes,
                 const std::vector<std::string> &ToolNames,
                 EvalRunStats *RunStats = nullptr) const;

private:
  /// Shared precisionMatrix/vulnRankMatrix plumbing: validates \p
  /// ToolNames against the registry (abort on unknown), fans the (owned
  /// cell × tool) task plane over the pool, fetches each task's cached
  /// DiffOutcome (the cell's image pair is built once and shared;
  /// subprocess backends round-trip at most once per key) and hands it
  /// to \p Fn together with the images. A task whose tool failed at
  /// runtime (DiffArtifact::Ok == false: worker timeout or crash past
  /// retry) is reported loudly on stderr and counted into
  /// RunStats.ToolFailures instead of running Fn — one hung backend
  /// never stalls the shard. Returns per-cell image-build success,
  /// indexed by FlatIdx (foreign-shard cells stay 0).
  std::vector<uint8_t> runCellToolPlane(
      const std::vector<Workload> &Workloads,
      const std::vector<ObfuscationMode> &Modes,
      const std::vector<std::string> &ToolNames,
      const std::function<void(const EvalTask &,
                               const EvalPipeline::ImageArtifact &,
                               const EvalPipeline::ImageArtifact &,
                               const DiffOutcome &)> &Fn,
      EvalRunStats *RunStats) const;
  /// Remote twin of runCellToolPlane: ships each (cell × tool) task to
  /// the daemon as a DiffTask request and feeds the response to \p Fn.
  /// Same failure reporting, same CellOk bookkeeping, byte-identical
  /// downstream output.
  std::vector<uint8_t> remoteCellToolPlane(
      const std::vector<Workload> &Workloads,
      const std::vector<ObfuscationMode> &Modes,
      const std::vector<std::string> &ToolNames,
      const std::function<void(const EvalTask &, const EvalResponse &)> &Fn,
      EvalRunStats *RunStats) const;

  /// Borrows a connected client from the pool (one per concurrent
  /// worker; new connections are opened on demand). die-on-failure: a
  /// daemon that vanishes mid-run cannot produce a correct matrix.
  std::unique_ptr<EvalClient> acquireClient() const;
  void releaseClient(std::unique_ptr<EvalClient> C) const;

  /// Runs Fn(0..N-1) on the worker pool (atomic-ticket work stealing).
  void runPool(size_t N, const std::function<void(size_t)> &Fn) const;

  /// Enumerates the owned cells of the matrix, in row-major order.
  std::vector<EvalCell>
  ownedCells(const std::vector<Workload> &Workloads,
             const std::vector<ObfuscationMode> &Modes) const;

  Config Cfg;
  unsigned Workers;
  std::shared_ptr<EvalPipeline> Pipe;
  mutable std::mutex ClientsM;
  mutable std::vector<std::unique_ptr<EvalClient>> Clients;
};

} // namespace khaos

#endif // KHAOS_HARNESS_EVALSCHEDULER_H
