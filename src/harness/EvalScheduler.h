//===- harness/EvalScheduler.h - Parallel evaluation batches ----*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch engine over the EvalPipeline: fans the (workload × baseline
/// config × ObfuscationMode) matrix — and, for diffing, the (cell × tool)
/// task plane — across a std::thread pool. Every diffing front-end is a
/// projection of one plane (confoundMatrix) whose task is one
/// EvalPipeline::diffTask, run in-process or on a khaos-evald daemon
/// that answers with the same function. Four properties make parallel
/// runs bit-for-bit reproducible at any thread count, shard decomposition
/// and cache setting:
///
///  1. Per-task isolation — every cell compiles into its own
///     Context/Module; shared pipeline artifacts are immutable and
///     consumers clone before mutating.
///  2. Deterministic seeding — each cell's RNG seed is derived from
///     (base seed, workload name, mode), never from scheduling order or
///     the cell's baseline config.
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

/// One cell of the (workload × baseline config × mode) evaluation matrix.
struct EvalCell {
  const Workload *W = nullptr;
  ObfuscationMode Mode = ObfuscationMode::None;
  uint64_t Seed = 0;       ///< Derived via deriveCellSeed().
  size_t WorkloadIdx = 0;  ///< Row: position of W in the workload list.
  size_t ModeIdx = 0;      ///< Column: position of Mode in the mode list.
  size_t FlatIdx = 0;      ///< Row-major index into the matrix.
  /// Build config of the cell's A-side (the scheduler's Config::Baseline
  /// unless a front-end sweeps the axis).
  BuildConfig Baseline = {};
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
  /// Per-pass potency/cost totals (MBA sites, encrypted strings, block
  /// splits, byte growth) folded in from every cell's B-side image.
  PassReport Passes;
  /// Cache telemetry: the ArtifactStore's counter delta over each matrix
  /// run, summed (reportScheduler prints it on stderr; stdout stays
  /// byte-identical). The disk counters stay zero without --cache-dir,
  /// and every counter stays zero under --connect, whose caching happens
  /// in the daemon's store.
  ArtifactStore::Snapshot Cache;

  /// Thread-safe: counts one cell.
  void countCell(bool Failed);

  /// Thread-safe: folds one image's pass telemetry into the totals
  /// without counting a cell (the cell×tool planes count cells in their
  /// deterministic post-pass instead).
  void mergePasses(const PassReport &R);

  /// Thread-safe: counts one failed (cell × tool) task.
  void countToolFailure();

  /// Thread-safe: folds an ArtifactStore counter delta into Cache.
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
    /// configuration mismatch (cache setting or baseline build config),
    /// which would silently break that identity.
    std::string ConnectPath = {};
    /// The default baseline build config for every front-end that does
    /// not sweep the axis explicitly (--baseline-opt / --codegen).
    /// Forwarded to the pipeline and checked against the daemon's ping.
    BuildConfig Baseline = {};

    /// The pipeline half of this config: what the scheduler builds its
    /// EvalPipeline from, and what front-ends that run a bare pipeline
    /// (khaos-evald, bench_vm_engines) build theirs from.
    EvalPipeline::Config pipelineConfig() const {
      return {CacheEnabled, StoreMaxBytes, CacheDir, DiskMaxBytes, Baseline};
    }
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

  /// Runs \p Fn over the (owned cell × tool index) task plane at the
  /// scheduler's baseline config — the unit benches use when per-tool
  /// work dominates per-cell work. Tasks are handed out tool-major: every
  /// owned cell's ToolIdx-0 task, then every ToolIdx-1 task, and so on.
  void forEachCellTask(const std::vector<Workload> &Workloads,
                       const std::vector<ObfuscationMode> &Modes,
                       size_t NumTools,
                       const std::function<void(const EvalTask &)> &Fn) const;

  //===--------------------------------------------------------------------===//
  // Batch front-ends over the EvalPipeline stages. Result vectors always
  // have one slot per matrix cell; slots of cells owned by other shards
  // keep Ran == false and are otherwise default-initialized.
  //===--------------------------------------------------------------------===//

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

  /// Per-cell Precision@1 of each tool in \p ToolNames order, or -1.0
  /// when the tool failed or the image pair could not be built.
  struct CellPrecision {
    bool Ran = false;
    bool Ok = false;
    std::vector<double> PerTool;
  };

  /// confoundMatrix at the scheduler's baseline config, projected to
  /// Precision@1 (fig8).
  std::vector<CellPrecision>
  precisionMatrix(const std::vector<Workload> &Workloads,
                  const std::vector<ObfuscationMode> &Modes,
                  const std::vector<std::string> &ToolNames,
                  EvalRunStats *RunStats = nullptr) const;

  /// Per-cell search ranks of the workload's vulnerable functions.
  /// PerTool[toolIdx] is parallel to Workload::VulnFunctions
  /// (UINT32_MAX = not found) and empty when the tool failed or the
  /// cell's images could not be built.
  struct CellRanks {
    bool Ran = false;
    bool Ok = false;
    std::vector<std::vector<uint32_t>> PerTool;
  };

  /// confoundMatrix at the scheduler's baseline config, projected to the
  /// vulnerable-function ranks — the escape@k / Table-3 front-end (fig10,
  /// table3).
  std::vector<CellRanks>
  vulnRankMatrix(const std::vector<Workload> &Workloads,
                 const std::vector<ObfuscationMode> &Modes,
                 const std::vector<std::string> &ToolNames,
                 EvalRunStats *RunStats = nullptr) const;

  /// One cell of the (workload × baseline config × mode) matrix. Sentinel
  /// -1.0 (and an empty rank list) marks a tool that failed at runtime or
  /// a cell whose image pair could not be built.
  struct ConfoundCell {
    bool Ran = false;
    bool Ok = false;
    std::vector<double> PerToolPrecision;
    std::vector<double> PerToolSimilarity;
    /// Parallel to Workload::VulnFunctions (UINT32_MAX = not found).
    std::vector<std::vector<uint32_t>> PerToolRanks;
  };

  /// The diff plane: one EvalPipeline::diffTask per (workload, baseline
  /// config, mode, tool), in-process or on the daemon (--connect; the
  /// cell's config travels in the DiffTask request). Each cell's image
  /// pair is built once in the ArtifactStore and shared by its tool
  /// tasks, so heavy tools never serialize a cell. Every entry of \p
  /// ToolNames must be registered (hard error otherwise — a silent
  /// mismatch would render as an all-zero figure row). A task whose tool
  /// fails at runtime (worker timeout or crash past retry) is reported on
  /// stderr and counted into RunStats.ToolFailures; one hung backend
  /// never stalls the shard.
  ///
  /// Cells are row-major over (workload, config, mode) — Flat = (WI *
  /// NumConfigs + CI) * NumModes + MI — so a figure can separate what the
  /// *build delta* does to a tool (Mode == None columns) from what the
  /// *obfuscation* adds on top. Per-cell seeds are deliberately
  /// config-independent: every config row diffs against the *same*
  /// obfuscated B-side, so a warm sweep over N configs builds each
  /// obfuscated image once and each baseline once per config.
  std::vector<ConfoundCell>
  confoundMatrix(const std::vector<Workload> &Workloads,
                 const std::vector<BuildConfig> &Configs,
                 const std::vector<ObfuscationMode> &Modes,
                 const std::vector<std::string> &ToolNames,
                 EvalRunStats *RunStats = nullptr) const;

private:
  /// One request→response round trip on a pooled daemon connection (one
  /// per concurrent worker; new connections are opened on demand).
  /// die-on-failure: a daemon that vanishes mid-run cannot produce a
  /// correct matrix, and an error response means client and daemon
  /// disagree about the protocol.
  EvalResponse callDaemon(const EvalRequest &Req) const;

  /// Runs Fn(0..N-1) on the worker pool (atomic-ticket work stealing).
  void runPool(size_t N, const std::function<void(size_t)> &Fn) const;

  /// Enumerates the owned cells of the (workload × config × mode) matrix,
  /// in row-major order.
  std::vector<EvalCell>
  ownedCells(const std::vector<Workload> &Workloads,
             const std::vector<BuildConfig> &Configs,
             const std::vector<ObfuscationMode> &Modes) const;

  /// forEachCellTask over an explicit config axis.
  void forEachCellTask(const std::vector<Workload> &Workloads,
                       const std::vector<BuildConfig> &Configs,
                       const std::vector<ObfuscationMode> &Modes,
                       size_t NumTools,
                       const std::function<void(const EvalTask &)> &Fn) const;

  Config Cfg;
  unsigned Workers;
  std::shared_ptr<EvalPipeline> Pipe;
  mutable std::mutex ClientsM;
  mutable std::vector<std::unique_ptr<EvalClient>> Clients;
};

} // namespace khaos

#endif // KHAOS_HARNESS_EVALSCHEDULER_H
