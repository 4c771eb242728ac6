//===- harness/EvalScheduler.cpp - Parallel evaluation batches ------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/EvalScheduler.h"

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
  Cache += Delta;
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
  Pipe = std::make_shared<EvalPipeline>(Cfg.pipelineConfig());

  if (remote()) {
    // Fail fast, and fail loud: a daemon whose cache setting differs
    // from this run's flags would NOT produce byte-identical results,
    // which is the whole --connect contract.
    EvalRequest Ping;
    Ping.Kind = EvalWireKind::Ping;
    EvalResponse Resp = callDaemon(Ping);
    if ((Resp.CacheEnabled != 0) != Cfg.CacheEnabled) {
      std::fprintf(stderr,
                   "EvalScheduler: khaos-evald at '%s' runs cache=%s but "
                   "this run wants cache=%s — results would not be "
                   "comparable\n",
                   Cfg.ConnectPath.c_str(), Resp.CacheEnabled ? "on" : "off",
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
  }
}

EvalScheduler::~EvalScheduler() = default;

EvalResponse EvalScheduler::callDaemon(const EvalRequest &Req) const {
  std::unique_ptr<EvalClient> Client;
  {
    std::lock_guard<std::mutex> Lock(ClientsM);
    if (!Clients.empty()) {
      Client = std::move(Clients.back());
      Clients.pop_back();
    }
  }
  std::string Err;
  if (!Client) {
    Client.reset(new EvalClient());
    if (!Client->connect(Cfg.ConnectPath, Err)) {
      std::fprintf(stderr,
                   "EvalScheduler: cannot reach khaos-evald at '%s': %s\n",
                   Cfg.ConnectPath.c_str(), Err.c_str());
      std::abort();
    }
  }
  EvalResponse Resp;
  if (!Client->call(Req, Resp, Err) || !Resp.Ok) {
    std::fprintf(stderr, "EvalScheduler: khaos-evald request failed: %s\n",
                 Err.empty() ? Resp.Error.c_str() : Err.c_str());
    std::abort();
  }
  std::lock_guard<std::mutex> Lock(ClientsM);
  Clients.push_back(std::move(Client));
  return Resp;
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
                          const std::vector<BuildConfig> &Configs,
                          const std::vector<ObfuscationMode> &Modes) const {
  // The config axis is the middle dimension, so a workload's rows stay
  // contiguous in figure output and a one-config matrix keeps
  // Flat = WI * NumModes + MI.
  const size_t NumCells = Workloads.size() * Configs.size() * Modes.size();
  std::vector<EvalCell> Cells;
  Cells.reserve(NumCells / Cfg.Shards + 1);
  for (size_t WI = 0; WI != Workloads.size(); ++WI)
    for (size_t CI = 0; CI != Configs.size(); ++CI)
      for (size_t MI = 0; MI != Modes.size(); ++MI) {
        size_t Flat = (WI * Configs.size() + CI) * Modes.size() + MI;
        if (!ownsCell(Flat))
          continue;
        EvalCell C;
        C.W = &Workloads[WI];
        C.Mode = Modes[MI];
        // Seeds are derived from (workload, mode) alone — NOT the config
        // — so every config row diffs against the same obfuscated image,
        // which is both the confound experiment's point and what makes a
        // sweep over N configs build each B-side exactly once.
        C.Seed = deriveCellSeed(Cfg.Seed, Workloads[WI].Name, Modes[MI]);
        C.WorkloadIdx = WI;
        C.ModeIdx = MI;
        C.FlatIdx = Flat;
        C.Baseline = Configs[CI];
        Cells.push_back(C);
      }
  return Cells;
}

void EvalScheduler::forEachCell(
    const std::vector<Workload> &Workloads,
    const std::vector<ObfuscationMode> &Modes,
    const std::function<void(const EvalCell &)> &Fn) const {
  std::vector<EvalCell> Cells = ownedCells(Workloads, {Cfg.Baseline}, Modes);
  runPool(Cells.size(), [&](size_t I) { Fn(Cells[I]); });
}

void EvalScheduler::forEachCellTask(
    const std::vector<Workload> &Workloads,
    const std::vector<ObfuscationMode> &Modes, size_t NumTools,
    const std::function<void(const EvalTask &)> &Fn) const {
  forEachCellTask(Workloads, {Cfg.Baseline}, Modes, NumTools, Fn);
}

void EvalScheduler::forEachCellTask(
    const std::vector<Workload> &Workloads,
    const std::vector<BuildConfig> &Configs,
    const std::vector<ObfuscationMode> &Modes, size_t NumTools,
    const std::function<void(const EvalTask &)> &Fn) const {
  // Tool-major: every cell's tool 0, then every cell's tool 1, ... The
  // first N workers then build N different cells' image pairs instead of
  // N-1 of them parking on one cell's single-flight build, and later
  // tools find the images cached. Result slots are keyed by (cell, tool),
  // so the order cannot change any output.
  std::vector<EvalCell> Cells = ownedCells(Workloads, Configs, Modes);
  runPool(Cells.size() * NumTools, [&](size_t I) {
    EvalTask T;
    T.Cell = Cells[I % Cells.size()];
    T.ToolIdx = I / Cells.size();
    Fn(T);
  });
}

std::vector<EvalScheduler::CellOverhead>
EvalScheduler::overheadMatrix(const std::vector<Workload> &Workloads,
                              const std::vector<ObfuscationMode> &Modes,
                              EvalRunStats *RunStats) const {
  ArtifactStore::Snapshot Before = Pipe->store().stats();
  std::vector<CellOverhead> Out(Workloads.size() * Modes.size());
  forEachCell(Workloads, Modes, [&](const EvalCell &C) {
    CellOverhead &Slot = Out[C.FlatIdx];
    Slot.Ran = true;
    if (remote()) {
      // Same cell, same seed — measured on the daemon's warm pipeline.
      // The percent travels as raw double bits, so downstream formatting
      // is byte-identical to an in-process run.
      EvalRequest Req;
      Req.Kind = EvalWireKind::Overhead;
      Req.W = *C.W;
      Req.Mode = C.Mode;
      Req.Seed = C.Seed;
      EvalResponse Resp = callDaemon(Req);
      Slot.Ok = Resp.Measured != 0;
      Slot.Percent = Resp.Percent;
    } else {
      Slot.Ok = Pipe->overheadPercent(*C.W, C.Mode, Slot.Percent, C.Seed);
    }
    if (RunStats)
      RunStats->countCell(!Slot.Ok);
  });
  // A remote run leaves the local store untouched: its delta is zero and
  // the daemon's store keeps its own telemetry.
  if (RunStats)
    RunStats->mergeCache(
        ArtifactStore::Snapshot::delta(Pipe->store().stats(), Before));
  return Out;
}

std::vector<EvalScheduler::ConfoundCell>
EvalScheduler::confoundMatrix(const std::vector<Workload> &Workloads,
                              const std::vector<BuildConfig> &Configs,
                              const std::vector<ObfuscationMode> &Modes,
                              const std::vector<std::string> &ToolNames,
                              EvalRunStats *RunStats) const {
  // A misspelled tool name would silently yield an all-zero figure row;
  // fail fast against the registry (the daemon checks the same one).
  for (const std::string &Name : ToolNames) {
    if (!isDiffToolRegistered(Name)) {
      std::fprintf(stderr, "EvalScheduler: unknown diffing tool '%s'\n",
                   Name.c_str());
      std::abort();
    }
  }

  const size_t NumCells = Workloads.size() * Configs.size() * Modes.size();
  std::vector<ConfoundCell> Out(NumCells);
  for (size_t Flat = 0; Flat != NumCells; ++Flat) {
    if (!ownsCell(Flat))
      continue;
    Out[Flat].Ran = true;
    Out[Flat].PerToolPrecision.assign(ToolNames.size(), -1.0);
    Out[Flat].PerToolSimilarity.assign(ToolNames.size(), -1.0);
    Out[Flat].PerToolRanks.resize(ToolNames.size());
  }
  ArtifactStore::Snapshot Before = Pipe->store().stats();

  // One task = one EvalPipeline::diffTask, in process or on the daemon.
  // The cell's image pair is built once by whichever task gets there
  // first (single-flight in the ArtifactStore) and shared; each task then
  // pulls its cached DiffOutcome, so a warm re-run performs zero worker
  // round trips. With no tools, one images-only task per cell still
  // records whether the cell built.
  forEachCellTask(
      Workloads, Configs, Modes, ToolNames.empty() ? 1 : ToolNames.size(),
      [&](const EvalTask &T) {
        const EvalCell &C = T.Cell;
        const std::string Tool =
            T.ToolIdx < ToolNames.size() ? ToolNames[T.ToolIdx] : "";
        EvalPipeline::DiffTaskResult R;
        if (remote()) {
          EvalRequest Req;
          Req.Kind = EvalWireKind::DiffTask;
          Req.W = *C.W;
          Req.Mode = C.Mode;
          Req.Seed = C.Seed;
          Req.Tool = Tool;
          Req.BaselineLevel = static_cast<uint8_t>(C.Baseline.Level);
          Req.BaselineCodegen = C.Baseline.packedCodegen();
          R = callDaemon(Req).Diff;
        } else {
          R = Pipe->diffTask(*C.W, C.Baseline, C.Mode, C.Seed, Tool);
        }
        ConfoundCell &Slot = Out[C.FlatIdx];
        if (T.ToolIdx == 0) {
          // Cells are owned whole, so the ToolIdx-0 task always runs in
          // this shard and is the only writer of the cell's Ok: it records
          // the image-build outcome and folds the B-side pass telemetry
          // exactly once per cell (PassReport::merge is additive, so
          // scheduling cannot change the totals; a remote result carries
          // an empty report).
          Slot.Ok = R.ImagesOk;
          if (RunStats && R.ImagesOk)
            RunStats->mergePasses(R.Report);
        }
        if (!R.ImagesOk || Tool.empty())
          return;
        if (!R.ToolOk) {
          // Loud per-task failure (timeout, crashed worker): the task
          // renders as "n/a", siblings and the shard keep going.
          std::fprintf(stderr,
                       "[scheduler] tool '%s' failed on %s/%s/%s: %s\n",
                       Tool.c_str(), C.W->Name.c_str(),
                       C.Baseline.name().c_str(), obfuscationModeName(C.Mode),
                       R.ToolError.c_str());
          if (RunStats)
            RunStats->countToolFailure();
          return;
        }
        Slot.PerToolPrecision[T.ToolIdx] = R.Precision;
        Slot.PerToolSimilarity[T.ToolIdx] = R.Similarity;
        Slot.PerToolRanks[T.ToolIdx] = std::move(R.VulnRanks);
      });

  // Deterministic post-pass: count owned cells in row-major order. A
  // remote run's local cache delta is zero, as in overheadMatrix.
  if (RunStats) {
    for (const ConfoundCell &Cell : Out)
      if (Cell.Ran)
        RunStats->countCell(!Cell.Ok);
    RunStats->mergeCache(
        ArtifactStore::Snapshot::delta(Pipe->store().stats(), Before));
  }
  return Out;
}

std::vector<EvalScheduler::CellPrecision>
EvalScheduler::precisionMatrix(const std::vector<Workload> &Workloads,
                               const std::vector<ObfuscationMode> &Modes,
                               const std::vector<std::string> &ToolNames,
                               EvalRunStats *RunStats) const {
  std::vector<ConfoundCell> Cells =
      confoundMatrix(Workloads, {Cfg.Baseline}, Modes, ToolNames, RunStats);
  std::vector<CellPrecision> Out(Cells.size());
  for (size_t Flat = 0; Flat != Cells.size(); ++Flat) {
    Out[Flat].Ran = Cells[Flat].Ran;
    Out[Flat].Ok = Cells[Flat].Ok;
    Out[Flat].PerTool = std::move(Cells[Flat].PerToolPrecision);
  }
  return Out;
}

std::vector<EvalScheduler::CellRanks>
EvalScheduler::vulnRankMatrix(const std::vector<Workload> &Workloads,
                              const std::vector<ObfuscationMode> &Modes,
                              const std::vector<std::string> &ToolNames,
                              EvalRunStats *RunStats) const {
  std::vector<ConfoundCell> Cells =
      confoundMatrix(Workloads, {Cfg.Baseline}, Modes, ToolNames, RunStats);
  std::vector<CellRanks> Out(Cells.size());
  for (size_t Flat = 0; Flat != Cells.size(); ++Flat) {
    Out[Flat].Ran = Cells[Flat].Ran;
    Out[Flat].Ok = Cells[Flat].Ok;
    Out[Flat].PerTool = std::move(Cells[Flat].PerToolRanks);
  }
  return Out;
}
