//===- harness/EvalScheduler.cpp - Parallel evaluation batches ------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/EvalScheduler.h"

#include "diffing/Metrics.h"
#include "support/RNG.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace khaos;

uint64_t khaos::deriveCellSeed(uint64_t BaseSeed,
                               const std::string &WorkloadName,
                               ObfuscationMode Mode) {
  // Name the stream after the cell and salt it with the base seed and the
  // mode. RNG::fromName is an FNV-1a mix, so distinct workloads get
  // uncorrelated streams while the same cell always maps to the same seed.
  uint64_t Salt =
      BaseSeed * 0x100000001b3ull + static_cast<uint64_t>(Mode) + 1;
  return RNG::fromName(WorkloadName, Salt).next();
}

void EvalRunStats::mergeCell(const ObfuscationResult &R, bool Failed) {
  std::lock_guard<std::mutex> Lock(M);
  Cells += 1;
  Failures += Failed ? 1 : 0;
  Fission.OriFuncs += R.Fission.OriFuncs;
  Fission.ProcessedFuncs += R.Fission.ProcessedFuncs;
  Fission.SepFuncs += R.Fission.SepFuncs;
  Fission.SepBlocks += R.Fission.SepBlocks;
  Fission.LazyAllocas += R.Fission.LazyAllocas;
  Fission.OriInstructions += R.Fission.OriInstructions;
  Fission.MovedInstructions += R.Fission.MovedInstructions;
  Fusion.Candidates += R.Fusion.Candidates;
  Fusion.Fused += R.Fusion.Fused;
  Fusion.Pairs += R.Fusion.Pairs;
  Fusion.CompressedParams += R.Fusion.CompressedParams;
  Fusion.DeepMergedBlocks += R.Fusion.DeepMergedBlocks;
  Fusion.Trampolines += R.Fusion.Trampolines;
  Fusion.TaggedPointerSites += R.Fusion.TaggedPointerSites;
  Passes.merge(R.Report);
}

void EvalRunStats::countCell(bool Failed) {
  std::lock_guard<std::mutex> Lock(M);
  Cells += 1;
  Failures += Failed ? 1 : 0;
}

void EvalRunStats::mergePasses(const PassReport &R) {
  std::lock_guard<std::mutex> Lock(M);
  Passes.merge(R);
}

void EvalRunStats::countToolFailure() {
  std::lock_guard<std::mutex> Lock(M);
  ToolFailures += 1;
}

void EvalRunStats::mergeCache(const ArtifactStore::Snapshot &Delta) {
  std::lock_guard<std::mutex> Lock(M);
  CacheHits += Delta.Hits;
  CacheMisses += Delta.Misses;
  CacheEvictions += Delta.Evictions;
  CacheBytesSaved += Delta.BytesSaved;
  DiskHits += Delta.DiskHits;
  DiskMisses += Delta.DiskMisses;
  DiskEvictions += Delta.DiskEvictions;
  DiskCorrupt += Delta.DiskCorrupt;
}

EvalScheduler::EvalScheduler(Config C) : Cfg(std::move(C)) {
  if (Cfg.Shards == 0)
    Cfg.Shards = 1;
  if (Cfg.ShardIdx >= Cfg.Shards) {
    std::fprintf(stderr,
                 "EvalScheduler: shard index %u out of range for %u "
                 "shards\n",
                 Cfg.ShardIdx, Cfg.Shards);
    std::abort();
  }
  Workers = Cfg.Threads;
  if (Workers == 0) {
    Workers = std::thread::hardware_concurrency();
    if (Workers == 0)
      Workers = 1;
  }
  EvalPipeline::Config PC;
  PC.CacheEnabled = Cfg.CacheEnabled;
  PC.StoreMaxBytes = Cfg.StoreMaxBytes;
  PC.Engine = Cfg.Engine;
  PC.CacheDir = Cfg.CacheDir;
  PC.DiskMaxBytes = Cfg.DiskMaxBytes;
  PC.Baseline = Cfg.Baseline;
  Pipe = std::make_shared<EvalPipeline>(PC);

  if (!Cfg.ConnectPath.empty()) {
    // Fail fast, and fail loud: a daemon whose engine or cache setting
    // differs from this run's flags would NOT produce byte-identical
    // results, which is the whole --connect contract.
    auto Client = std::unique_ptr<EvalClient>(new EvalClient());
    std::string Err;
    EvalRequest Req;
    Req.Kind = EvalWireKind::Ping;
    EvalResponse Resp;
    if (!Client->connect(Cfg.ConnectPath, Err) ||
        !Client->call(Req, Resp, Err) || !Resp.Ok) {
      std::fprintf(stderr, "EvalScheduler: cannot reach khaos-evald at "
                           "'%s': %s\n",
                   Cfg.ConnectPath.c_str(), Err.c_str());
      std::abort();
    }
    if (Resp.Engine != static_cast<uint8_t>(Cfg.Engine) ||
        (Resp.CacheEnabled != 0) != Cfg.CacheEnabled) {
      std::fprintf(stderr,
                   "EvalScheduler: khaos-evald at '%s' runs engine=%s "
                   "cache=%s but this run wants engine=%s cache=%s — "
                   "results would not be comparable\n",
                   Cfg.ConnectPath.c_str(),
                   vmEngineName(static_cast<VMEngine>(Resp.Engine)),
                   Resp.CacheEnabled ? "on" : "off",
                   vmEngineName(Cfg.Engine),
                   Cfg.CacheEnabled ? "on" : "off");
      std::abort();
    }
    // The baseline build config is an axis of the artifact keys: a client
    // wanting O0 cells from a daemon warmed at O2 must abort loudly here,
    // never silently mix keys.
    BuildConfig DaemonBC;
    DaemonBC.Level = static_cast<OptLevel>(Resp.BaselineLevel);
    DaemonBC.Codegen = BuildConfig::unpackCodegen(Resp.BaselineCodegen);
    if (DaemonBC != Cfg.Baseline) {
      std::fprintf(stderr,
                   "EvalScheduler: khaos-evald at '%s' runs baseline=%s "
                   "but this run wants baseline=%s — results would not "
                   "be comparable\n",
                   Cfg.ConnectPath.c_str(), DaemonBC.name().c_str(),
                   Cfg.Baseline.name().c_str());
      std::abort();
    }
    std::lock_guard<std::mutex> Lock(ClientsM);
    Clients.push_back(std::move(Client));
  }
}

EvalScheduler::~EvalScheduler() = default;

std::unique_ptr<EvalClient> EvalScheduler::acquireClient() const {
  {
    std::lock_guard<std::mutex> Lock(ClientsM);
    if (!Clients.empty()) {
      std::unique_ptr<EvalClient> C = std::move(Clients.back());
      Clients.pop_back();
      return C;
    }
  }
  auto C = std::unique_ptr<EvalClient>(new EvalClient());
  std::string Err;
  if (!C->connect(Cfg.ConnectPath, Err)) {
    std::fprintf(stderr, "EvalScheduler: cannot reach khaos-evald at "
                         "'%s': %s\n",
                 Cfg.ConnectPath.c_str(), Err.c_str());
    std::abort();
  }
  return C;
}

void EvalScheduler::releaseClient(std::unique_ptr<EvalClient> C) const {
  std::lock_guard<std::mutex> Lock(ClientsM);
  Clients.push_back(std::move(C));
}

void EvalScheduler::runPool(size_t N,
                            const std::function<void(size_t)> &Fn) const {
  unsigned Pool = Workers;
  if (Pool > N)
    Pool = static_cast<unsigned>(N);

  if (Pool <= 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }

  // Work-stealing by atomic ticket: workers pull the next unclaimed item,
  // so stragglers never serialize the rest of the matrix.
  std::atomic<size_t> Next{0};
  auto Worker = [&]() {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      Fn(I);
    }
  };
  std::vector<std::thread> Threads;
  Threads.reserve(Pool);
  for (unsigned T = 0; T != Pool; ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
}

std::vector<EvalCell>
EvalScheduler::ownedCells(const std::vector<Workload> &Workloads,
                          const std::vector<ObfuscationMode> &Modes) const {
  std::vector<EvalCell> Cells;
  Cells.reserve(Workloads.size() * Modes.size() / Cfg.Shards + 1);
  for (size_t WI = 0; WI != Workloads.size(); ++WI)
    for (size_t MI = 0; MI != Modes.size(); ++MI) {
      size_t Flat = WI * Modes.size() + MI;
      if (!ownsCell(Flat))
        continue;
      EvalCell C;
      C.W = &Workloads[WI];
      C.Mode = Modes[MI];
      C.Seed = deriveCellSeed(Cfg.Seed, Workloads[WI].Name, Modes[MI]);
      C.WorkloadIdx = WI;
      C.ModeIdx = MI;
      C.FlatIdx = Flat;
      Cells.push_back(C);
    }
  return Cells;
}

void EvalScheduler::forEachCell(
    const std::vector<Workload> &Workloads,
    const std::vector<ObfuscationMode> &Modes,
    const std::function<void(const EvalCell &)> &Fn) const {
  std::vector<EvalCell> Cells = ownedCells(Workloads, Modes);
  runPool(Cells.size(), [&](size_t I) { Fn(Cells[I]); });
}

void EvalScheduler::forEachCellTask(
    const std::vector<Workload> &Workloads,
    const std::vector<ObfuscationMode> &Modes, size_t NumTools,
    const std::function<void(const EvalTask &)> &Fn) const {
  // Tool-major: every cell's tool 0, then every cell's tool 1, ... The
  // first N workers then build N different cells' image pairs instead of
  // N-1 of them parking on one cell's single-flight build, and later
  // tools find the images cached. Result slots are keyed by (cell, tool),
  // so the order cannot change any output.
  std::vector<EvalCell> Cells = ownedCells(Workloads, Modes);
  runPool(Cells.size() * NumTools, [&](size_t I) {
    EvalTask T;
    T.Cell = Cells[I % Cells.size()];
    T.ToolIdx = I / Cells.size();
    Fn(T);
  });
}

std::vector<EvalScheduler::CellCompilation>
EvalScheduler::compileMatrix(const std::vector<Workload> &Workloads,
                             const std::vector<ObfuscationMode> &Modes,
                             EvalRunStats *RunStats) const {
  ArtifactStore::Snapshot Before = Pipe->store().stats();
  std::vector<CellCompilation> Out(Workloads.size() * Modes.size());
  forEachCell(Workloads, Modes, [&](const EvalCell &C) {
    CellCompilation &Slot = Out[C.FlatIdx];
    Slot.Ran = true;
    Slot.Compiled = Pipe->obfuscate(*C.W, C.Mode, &Slot.Stats, C.Seed);
    if (RunStats)
      RunStats->mergeCell(Slot.Stats, !Slot.Compiled);
  });
  if (RunStats)
    RunStats->mergeCache(
        ArtifactStore::Snapshot::delta(Pipe->store().stats(), Before));
  return Out;
}

std::vector<EvalScheduler::CellOverhead>
EvalScheduler::overheadMatrix(const std::vector<Workload> &Workloads,
                              const std::vector<ObfuscationMode> &Modes,
                              EvalRunStats *RunStats) const {
  ArtifactStore::Snapshot Before = Pipe->store().stats();
  std::vector<CellOverhead> Out(Workloads.size() * Modes.size());
  if (remote()) {
    // Same fan-out, same per-cell seeds — the measurement just happens on
    // the daemon's warm pipeline. The percent travels as raw double bits,
    // so downstream formatting is byte-identical to an in-process run.
    forEachCell(Workloads, Modes, [&](const EvalCell &C) {
      std::unique_ptr<EvalClient> Client = acquireClient();
      EvalRequest Req;
      Req.Kind = EvalWireKind::Overhead;
      Req.WorkloadName = C.W->Name;
      Req.WorkloadSource = C.W->Source;
      Req.Mode = C.Mode;
      Req.Seed = C.Seed;
      EvalResponse Resp;
      std::string Err;
      if (!Client->call(Req, Resp, Err) || !Resp.Ok) {
        std::fprintf(stderr,
                     "EvalScheduler: evald overhead request failed: %s\n",
                     Err.empty() ? Resp.Error.c_str() : Err.c_str());
        std::abort();
      }
      releaseClient(std::move(Client));
      CellOverhead &Slot = Out[C.FlatIdx];
      Slot.Ran = true;
      Slot.Ok = Resp.Measured != 0;
      Slot.Percent = Resp.Percent;
      if (RunStats)
        RunStats->countCell(!Slot.Ok);
    });
    return Out;
  }
  forEachCell(Workloads, Modes, [&](const EvalCell &C) {
    CellOverhead &Slot = Out[C.FlatIdx];
    Slot.Ran = true;
    Slot.Ok = Pipe->overheadPercent(*C.W, C.Mode, Slot.Percent, C.Seed);
    if (RunStats)
      RunStats->countCell(!Slot.Ok);
  });
  if (RunStats)
    RunStats->mergeCache(
        ArtifactStore::Snapshot::delta(Pipe->store().stats(), Before));
  return Out;
}

std::vector<uint8_t> EvalScheduler::remoteCellToolPlane(
    const std::vector<Workload> &Workloads,
    const std::vector<ObfuscationMode> &Modes,
    const std::vector<std::string> &ToolNames,
    const std::function<void(const EvalTask &, const EvalResponse &)> &Fn,
    EvalRunStats *RunStats) const {
  // Validate locally against the same registry the daemon checks; a
  // mismatch is version skew and the daemon would reject the request.
  for (const std::string &Name : ToolNames) {
    if (!isDiffToolRegistered(Name)) {
      std::fprintf(stderr, "EvalScheduler: unknown diffing tool '%s'\n",
                   Name.c_str());
      std::abort();
    }
  }

  std::vector<uint8_t> CellOk(Workloads.size() * Modes.size(), 0);
  forEachCellTask(
      Workloads, Modes, ToolNames.empty() ? 1 : ToolNames.size(),
      [&](const EvalTask &T) {
        std::unique_ptr<EvalClient> Client = acquireClient();
        EvalRequest Req;
        Req.Kind = EvalWireKind::DiffTask;
        Req.WorkloadName = T.Cell.W->Name;
        Req.WorkloadSource = T.Cell.W->Source;
        Req.VulnFunctions = T.Cell.W->VulnFunctions;
        Req.Mode = T.Cell.Mode;
        Req.Seed = T.Cell.Seed;
        if (T.ToolIdx < ToolNames.size())
          Req.Tool = ToolNames[T.ToolIdx];
        Req.BaselineLevel = static_cast<uint8_t>(Cfg.Baseline.Level);
        Req.BaselineCodegen = Cfg.Baseline.packedCodegen();
        EvalResponse Resp;
        std::string Err;
        if (!Client->call(Req, Resp, Err) || !Resp.Ok) {
          std::fprintf(stderr,
                       "EvalScheduler: evald diff request failed: %s\n",
                       Err.empty() ? Resp.Error.c_str() : Err.c_str());
          std::abort();
        }
        releaseClient(std::move(Client));
        bool ImagesOk = Resp.ImagesOk != 0;
        if (T.ToolIdx == 0)
          CellOk[T.Cell.FlatIdx] = ImagesOk ? 1 : 0;
        if (!ImagesOk || T.ToolIdx >= ToolNames.size())
          return;
        if (!Resp.ToolOk) {
          // Same failure shape as the in-process plane: the task renders
          // as "n/a", siblings and the run keep going.
          std::fprintf(stderr,
                       "[scheduler] tool '%s' failed on %s/%s: %s\n",
                       ToolNames[T.ToolIdx].c_str(),
                       T.Cell.W->Name.c_str(),
                       obfuscationModeName(T.Cell.Mode),
                       Resp.ToolError.c_str());
          if (RunStats)
            RunStats->countToolFailure();
          return;
        }
        Fn(T, Resp);
      });

  // Deterministic post-pass, mirroring runCellToolPlane. Cache counters
  // stay zero: the artifacts live in the daemon's store, which reports
  // its own telemetry.
  if (RunStats)
    for (size_t Flat = 0; Flat != CellOk.size(); ++Flat)
      if (ownsCell(Flat))
        RunStats->countCell(!CellOk[Flat]);
  return CellOk;
}

std::vector<uint8_t> EvalScheduler::runCellToolPlane(
    const std::vector<Workload> &Workloads,
    const std::vector<ObfuscationMode> &Modes,
    const std::vector<std::string> &ToolNames,
    const std::function<void(const EvalTask &,
                             const EvalPipeline::ImageArtifact &,
                             const EvalPipeline::ImageArtifact &,
                             const DiffOutcome &)> &Fn,
    EvalRunStats *RunStats) const {
  // A misspelled tool name would silently yield an all-zero figure row;
  // fail fast against the registry instead.
  for (const std::string &Name : ToolNames) {
    if (!isDiffToolRegistered(Name)) {
      std::fprintf(stderr,
                   "EvalScheduler: unknown diffing tool '%s'\n",
                   Name.c_str());
      std::abort();
    }
  }

  ArtifactStore::Snapshot Before = Pipe->store().stats();
  std::vector<uint8_t> CellOk(Workloads.size() * Modes.size(), 0);

  // (cell × tool) tasks: the cell's image pair is built once by whichever
  // task gets there first (single-flight in the ArtifactStore) and
  // shared. The task with ToolIdx 0 records the cell's image-build
  // outcome — cells are owned whole, so it always runs in this shard, and
  // it is the cell's only writer. Each task then pulls its cached
  // DiffOutcome stage: a warm re-run (or a sibling shard on a shared
  // store) reuses results without re-running the tool — for subprocess
  // backends that means zero worker round trips.
  forEachCellTask(
      Workloads, Modes, ToolNames.empty() ? 1 : ToolNames.size(),
      [&](const EvalTask &T) {
        auto A = Pipe->baselineImage(*T.Cell.W);
        auto B = Pipe->obfuscatedImage(*T.Cell.W, T.Cell.Mode, T.Cell.Seed);
        bool ImagesOk = A->Ok && B->Ok;
        if (T.ToolIdx == 0) {
          CellOk[T.Cell.FlatIdx] = ImagesOk ? 1 : 0;
          // The ToolIdx-0 task is the cell's only writer, so the pass
          // telemetry the obfuscated image carries is folded exactly
          // once per cell; PassReport::merge is additive, so thread
          // scheduling cannot change the totals.
          if (RunStats && ImagesOk)
            RunStats->mergePasses(B->Report);
        }
        if (!ImagesOk || T.ToolIdx >= ToolNames.size())
          return;
        auto D = Pipe->diffOutcome(*T.Cell.W, T.Cell.Mode, T.Cell.Seed,
                                   ToolNames[T.ToolIdx], A, B);
        if (!D->Ok) {
          // Loud per-task failure (timeout, crashed worker): the task
          // renders as "n/a", siblings and the shard keep going.
          std::fprintf(stderr,
                       "[scheduler] tool '%s' failed on %s/%s: %s\n",
                       ToolNames[T.ToolIdx].c_str(), T.Cell.W->Name.c_str(),
                       obfuscationModeName(T.Cell.Mode), D->Error.c_str());
          if (RunStats)
            RunStats->countToolFailure();
          return;
        }
        Fn(T, *A, *B, D->Outcome);
      });

  // Deterministic post-pass: count owned cells in row-major order.
  if (RunStats) {
    for (size_t Flat = 0; Flat != CellOk.size(); ++Flat)
      if (ownsCell(Flat))
        RunStats->countCell(!CellOk[Flat]);
    RunStats->mergeCache(
        ArtifactStore::Snapshot::delta(Pipe->store().stats(), Before));
  }
  return CellOk;
}

std::vector<EvalScheduler::CellPrecision>
EvalScheduler::precisionMatrix(const std::vector<Workload> &Workloads,
                               const std::vector<ObfuscationMode> &Modes,
                               const std::vector<std::string> &ToolNames,
                               EvalRunStats *RunStats) const {
  std::vector<CellPrecision> Out(Workloads.size() * Modes.size());
  for (size_t Flat = 0; Flat != Out.size(); ++Flat) {
    if (!ownsCell(Flat))
      continue;
    Out[Flat].Ran = true;
    Out[Flat].PerTool.assign(ToolNames.size(), -1.0);
  }

  std::vector<uint8_t> CellOk =
      remote() ? remoteCellToolPlane(
                     Workloads, Modes, ToolNames,
                     [&](const EvalTask &T, const EvalResponse &Resp) {
                       Out[T.Cell.FlatIdx].PerTool[T.ToolIdx] =
                           Resp.Precision;
                     },
                     RunStats)
               : runCellToolPlane(
                     Workloads, Modes, ToolNames,
                     [&](const EvalTask &T,
                         const EvalPipeline::ImageArtifact &,
                         const EvalPipeline::ImageArtifact &,
                         const DiffOutcome &O) {
                       Out[T.Cell.FlatIdx].PerTool[T.ToolIdx] = O.Precision;
                     },
                     RunStats);

  for (size_t Flat = 0; Flat != Out.size(); ++Flat)
    if (Out[Flat].Ran)
      Out[Flat].Ok = CellOk[Flat] != 0;
  return Out;
}

std::vector<EvalScheduler::ConfoundCell>
EvalScheduler::confoundMatrix(const std::vector<Workload> &Workloads,
                              const std::vector<BuildConfig> &Configs,
                              const std::vector<ObfuscationMode> &Modes,
                              const std::vector<std::string> &ToolNames,
                              EvalRunStats *RunStats) const {
  for (const std::string &Name : ToolNames) {
    if (!isDiffToolRegistered(Name)) {
      std::fprintf(stderr, "EvalScheduler: unknown diffing tool '%s'\n",
                   Name.c_str());
      std::abort();
    }
  }

  // One cell per (workload, config, mode); the config axis is the middle
  // dimension so a workload's rows stay contiguous in figure output.
  struct CCell {
    const Workload *W;
    const BuildConfig *BC;
    ObfuscationMode Mode;
    uint64_t Seed;
    size_t FlatIdx;
  };
  const size_t NumCells = Workloads.size() * Configs.size() * Modes.size();
  std::vector<ConfoundCell> Out(NumCells);
  std::vector<CCell> Cells;
  for (size_t WI = 0; WI != Workloads.size(); ++WI)
    for (size_t CI = 0; CI != Configs.size(); ++CI)
      for (size_t MI = 0; MI != Modes.size(); ++MI) {
        size_t Flat = (WI * Configs.size() + CI) * Modes.size() + MI;
        if (!ownsCell(Flat))
          continue;
        Out[Flat].Ran = true;
        Out[Flat].PerToolPrecision.assign(ToolNames.size(), -1.0);
        Out[Flat].PerToolSimilarity.assign(ToolNames.size(), -1.0);
        // Seeds are derived from (workload, mode) alone — NOT the config
        // — so every config row diffs against the same obfuscated image,
        // which is both the experiment's point and what makes a sweep
        // over N configs build each B-side exactly once.
        Cells.push_back({&Workloads[WI], &Configs[CI], Modes[MI],
                         deriveCellSeed(Cfg.Seed, Workloads[WI].Name,
                                        Modes[MI]),
                         Flat});
      }

  const size_t NumTools = ToolNames.empty() ? 1 : ToolNames.size();
  std::vector<uint8_t> CellOk(NumCells, 0);
  ArtifactStore::Snapshot Before = Pipe->store().stats();

  // Tool-major, as in forEachCellTask.
  runPool(Cells.size() * NumTools, [&](size_t I) {
    const CCell &C = Cells[I % Cells.size()];
    const size_t TI = I / Cells.size();
    if (remote()) {
      std::unique_ptr<EvalClient> Client = acquireClient();
      EvalRequest Req;
      Req.Kind = EvalWireKind::DiffTask;
      Req.WorkloadName = C.W->Name;
      Req.WorkloadSource = C.W->Source;
      Req.VulnFunctions = C.W->VulnFunctions;
      Req.Mode = C.Mode;
      Req.Seed = C.Seed;
      if (TI < ToolNames.size())
        Req.Tool = ToolNames[TI];
      Req.BaselineLevel = static_cast<uint8_t>(C.BC->Level);
      Req.BaselineCodegen = C.BC->packedCodegen();
      EvalResponse Resp;
      std::string Err;
      if (!Client->call(Req, Resp, Err) || !Resp.Ok) {
        std::fprintf(stderr,
                     "EvalScheduler: evald diff request failed: %s\n",
                     Err.empty() ? Resp.Error.c_str() : Err.c_str());
        std::abort();
      }
      releaseClient(std::move(Client));
      if (TI == 0)
        CellOk[C.FlatIdx] = Resp.ImagesOk != 0 ? 1 : 0;
      if (!Resp.ImagesOk || TI >= ToolNames.size())
        return;
      if (!Resp.ToolOk) {
        std::fprintf(stderr,
                     "[scheduler] tool '%s' failed on %s/%s/%s: %s\n",
                     ToolNames[TI].c_str(), C.W->Name.c_str(),
                     C.BC->name().c_str(), obfuscationModeName(C.Mode),
                     Resp.ToolError.c_str());
        if (RunStats)
          RunStats->countToolFailure();
        return;
      }
      Out[C.FlatIdx].PerToolPrecision[TI] = Resp.Precision;
      Out[C.FlatIdx].PerToolSimilarity[TI] = Resp.Similarity;
      return;
    }
    auto A = Pipe->baselineImage(*C.W, *C.BC);
    auto B = Pipe->obfuscatedImage(*C.W, C.Mode, C.Seed);
    bool ImagesOk = A->Ok && B->Ok;
    if (TI == 0) {
      CellOk[C.FlatIdx] = ImagesOk ? 1 : 0;
      if (RunStats && ImagesOk)
        RunStats->mergePasses(B->Report);
    }
    if (!ImagesOk || TI >= ToolNames.size())
      return;
    auto D =
        Pipe->diffOutcome(*C.W, *C.BC, C.Mode, C.Seed, ToolNames[TI], A, B);
    if (!D->Ok) {
      std::fprintf(stderr, "[scheduler] tool '%s' failed on %s/%s/%s: %s\n",
                   ToolNames[TI].c_str(), C.W->Name.c_str(),
                   C.BC->name().c_str(), obfuscationModeName(C.Mode),
                   D->Error.c_str());
      if (RunStats)
        RunStats->countToolFailure();
      return;
    }
    Out[C.FlatIdx].PerToolPrecision[TI] = D->Outcome.Precision;
    Out[C.FlatIdx].PerToolSimilarity[TI] = D->Outcome.Similarity;
  });

  // Deterministic post-pass, mirroring the other planes. Remote runs keep
  // cache counters zero — the artifacts live in the daemon's store.
  if (RunStats) {
    for (size_t Flat = 0; Flat != NumCells; ++Flat)
      if (ownsCell(Flat))
        RunStats->countCell(!CellOk[Flat]);
    if (!remote())
      RunStats->mergeCache(
          ArtifactStore::Snapshot::delta(Pipe->store().stats(), Before));
  }

  for (size_t Flat = 0; Flat != NumCells; ++Flat)
    if (Out[Flat].Ran)
      Out[Flat].Ok = CellOk[Flat] != 0;
  return Out;
}

std::vector<EvalScheduler::CellRanks>
EvalScheduler::vulnRankMatrix(const std::vector<Workload> &Workloads,
                              const std::vector<ObfuscationMode> &Modes,
                              const std::vector<std::string> &ToolNames,
                              EvalRunStats *RunStats) const {
  std::vector<CellRanks> Out(Workloads.size() * Modes.size());
  for (size_t Flat = 0; Flat != Out.size(); ++Flat) {
    if (!ownsCell(Flat))
      continue;
    Out[Flat].Ran = true;
    Out[Flat].PerTool.resize(ToolNames.size());
  }

  std::vector<uint8_t> CellOk =
      remote() ? remoteCellToolPlane(
                     Workloads, Modes, ToolNames,
                     [&](const EvalTask &T, const EvalResponse &Resp) {
                       // The daemon computed trueMatchRank over the same
                       // images and raw rankings; ranks travel verbatim.
                       Out[T.Cell.FlatIdx].PerTool[T.ToolIdx] =
                           Resp.VulnRanks;
                     },
                     RunStats)
               : runCellToolPlane(
                     Workloads, Modes, ToolNames,
                     [&](const EvalTask &T,
                         const EvalPipeline::ImageArtifact &A,
                         const EvalPipeline::ImageArtifact &B,
                         const DiffOutcome &O) {
                       std::vector<uint32_t> &Ranks =
                           Out[T.Cell.FlatIdx].PerTool[T.ToolIdx];
                       Ranks.reserve(T.Cell.W->VulnFunctions.size());
                       for (const std::string &V : T.Cell.W->VulnFunctions)
                         Ranks.push_back(
                             trueMatchRank(A.Image, B.Image, O.Raw, V));
                     },
                     RunStats);

  for (size_t Flat = 0; Flat != Out.size(); ++Flat)
    if (Out[Flat].Ran)
      Out[Flat].Ok = CellOk[Flat] != 0;
  return Out;
}
