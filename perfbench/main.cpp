//===- perfbench/main.cpp - The repository benchmark ----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload (diff, overhead or fuzz) on min(4, nproc) worker
/// threads and prints its metrics. The last line of stdout is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}.
///
///  --trace 0  Timed run, tracing off. Set-up runs three times (median
///             reported as setup_s); then untraced rounds of the workload's
///             batch front-end repeat until --seconds have passed (each
///             worker takes its next task when the last one finishes).
///             Afterwards the layer-pass replay checks every cell of round
///             0. Prints the end-to-end metrics.
///  --trace 1  Traced run: one untraced round, then the stage pass and the
///             layer pass over the same cells, both of which must reproduce
///             the round exactly. Prints the per-layer metrics and writes
///             both passes as Chrome trace-event JSON to --trace-dir.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "obfuscation/KhaosDriver.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;
using namespace khaos;

namespace {

/// The seed whose diff results are committed under --reference-dir.
constexpr uint64_t DefaultSeed = 0xc906;

constexpr unsigned SetupRepeats = 3;

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  bool HaveSeed = false;
  unsigned Seconds = 10;
  bool Trace = false;
  unsigned Threads = 0;
  std::string TraceDir;
  std::string ReferenceDir;
  std::string DumpCells;
};

const char *const Usage =
    "usage: khaos-perfbench --workload diff|overhead|fuzz --seed N\n"
    "                       [--seconds S] [--trace 0|1] [--threads T]\n"
    "                       [--trace-dir DIR] [--reference-dir DIR]\n"
    "                       [--dump-cells FILE]\n"
    "  --workload       which workload to run (required)\n"
    "  --seed           workload seed: picks the suite sample, the base\n"
    "                   cell seed and the fuzzer seed (required)\n"
    "  --seconds        length of the timed window (default 10)\n"
    "  --trace          0 = timed run, end-to-end metrics (default);\n"
    "                   1 = traced run, per-layer metrics\n"
    "  --threads        worker threads (default min(4, nproc); at most\n"
    "                   nproc)\n"
    "  --trace-dir      where --trace 1 writes its Chrome trace files\n"
    "  --reference-dir  directory of committed per-cell reference results\n"
    "  --dump-cells     write round 0's per-cell results to FILE\n";

[[noreturn]] void usageError(const std::string &Msg) {
  std::fprintf(stderr, "khaos-perfbench: %s\n%s", Msg.c_str(), Usage);
  std::exit(2);
}

bool parseUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty() || S[0] == '-')
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S.c_str(), &End, 0);
  if (errno != 0 || *End != '\0')
    return false;
  Out = V;
  return true;
}

unsigned onlineCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  uint64_t Threads = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I], Value;
    if (Flag == "--help" || Flag == "-h") {
      std::fputs(Usage, stdout);
      std::exit(0);
    }
    size_t Eq = Flag.find('=');
    bool Inline = Flag.rfind("--", 0) == 0 && Eq != std::string::npos;
    if (Inline) {
      Value = Flag.substr(Eq + 1);
      Flag = Flag.substr(0, Eq);
    }
    static const char *const Known[] = {
        "--workload",  "--seed",          "--seconds",   "--trace",
        "--threads",   "--trace-dir",     "--reference-dir",
        "--dump-cells"};
    if (std::find(std::begin(Known), std::end(Known), Flag) ==
        std::end(Known))
      usageError("unknown argument '" + Flag + "'");
    if (!Inline) {
      if (I + 1 >= Argc)
        usageError("missing value for " + Flag);
      Value = Argv[++I];
    }
    uint64_t N = 0;
    if (Flag == "--workload") {
      const auto &Names = workloadNames();
      if (std::find(Names.begin(), Names.end(), Value) == Names.end())
        usageError("unknown workload '" + Value + "'");
      O.Workload = Value;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(Value, O.Seed))
        usageError("bad --seed '" + Value + "'");
      O.HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(Value, N) || N == 0 || N > 3600)
        usageError("--seconds must be in 1..3600");
      O.Seconds = static_cast<unsigned>(N);
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usageError("--trace must be 0 or 1");
      O.Trace = Value == "1";
    } else if (Flag == "--threads") {
      if (!parseUnsigned(Value, Threads) || Threads == 0)
        usageError("--threads must be a positive integer");
    } else if (Flag == "--trace-dir") {
      O.TraceDir = Value;
    } else if (Flag == "--reference-dir") {
      O.ReferenceDir = Value;
    } else {
      O.DumpCells = Value;
    }
  }
  if (O.Workload.empty())
    usageError("--workload is required");
  if (!O.HaveSeed)
    usageError("--seed is required");
  const unsigned Cpus = onlineCpus();
  if (Threads > Cpus)
    usageError("--threads " + std::to_string(Threads) + " exceeds the " +
               std::to_string(Cpus) + " available CPUs");
  O.Threads = Threads ? static_cast<unsigned>(Threads) : std::min(4u, Cpus);
  return O;
}

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// Process user + system CPU time in ms.
double cpuMs() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Reports the first difference between two passes on stderr.
bool sameLines(const CellLines &Want, const CellLines &Got,
               const char *What) {
  if (Want == Got)
    return true;
  size_t I = 0;
  while (I < Want.size() && I < Got.size() && Want[I] == Got[I])
    ++I;
  std::fprintf(stderr,
               "perfbench: %s differs at cell line %zu: '%s' vs '%s' "
               "(%zu vs %zu lines)\n",
               What, I, I < Want.size() ? Want[I].c_str() : "<end>",
               I < Got.size() ? Got[I].c_str() : "<end>", Want.size(),
               Got.size());
  return false;
}

/// Compares a diff run's round 0 at the default seed with the committed
/// reference, keyed by the line's names (matrix, workload, mode, tool),
/// never by position. Other workloads and seeds have no reference.
bool matchesReference(const Options &O, const CellLines &Lines) {
  if (O.ReferenceDir.empty() || O.Workload != "diff" || O.Seed != DefaultSeed)
    return true;
  std::string Path = O.ReferenceDir + "/diff-seed-" +
                     std::to_string(O.Seed) + ".txt";
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", Path.c_str());
    return false;
  }
  auto Split = [](const std::string &L) {
    size_t Cut = L.rfind(' ');
    return std::make_pair(L.substr(0, Cut), L.substr(Cut + 1));
  };
  std::map<std::string, std::string> Want, Got;
  for (std::string L; std::getline(In, L);)
    if (!L.empty() && L[0] != '#')
      Want.insert(Split(L));
  for (const std::string &L : Lines)
    Got.insert(Split(L));
  if (Want == Got)
    return true;
  for (const auto &[Key, Value] : Want) {
    auto It = Got.find(Key);
    if (It == Got.end() || It->second != Value) {
      std::fprintf(stderr, "perfbench: %s: '%s' is %s, reference says %s\n",
                   Path.c_str(), Key.c_str(),
                   It == Got.end() ? "missing" : It->second.c_str(),
                   Value.c_str());
      return false;
    }
  }
  std::fprintf(stderr, "perfbench: %s: run has cells the reference lacks\n",
               Path.c_str());
  return false;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string fmt(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
           fmt(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit +
           "\"}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

void printTable(const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("%-40s %16s %s\n", M.Name.c_str(), fmt(M.Value).c_str(),
                M.Unit.c_str());
}

int timedRun(const Options &O, BenchWorkload &W) {
  std::vector<double> Setup;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    Clock::time_point T = Clock::now();
    W.setup();
    Setup.push_back(secondsSince(T));
  }

  // Closed-loop batch: rounds back to back until the window has passed.
  // Rates are totals over the rounds: successive rounds may run different
  // programs, and the total weighs each by its work.
  double RoundsWall = 0.0, RoundsCpu = 0.0;
  unsigned Rounds = 0;
  RoundResult First;
  uint64_t Cells = 0, Attempted = 0, Failed = 0;
  bool Correct = true;
  const Clock::time_point Start = Clock::now();
  for (unsigned I = 0; I == 0 || secondsSince(Start) < O.Seconds; ++I) {
    Clock::time_point T = Clock::now();
    double Cpu = cpuMs();
    RoundResult R = W.round(I);
    double Wall = secondsSince(T);
    Cpu = cpuMs() - Cpu;
    // Hand the finished round's freed pages back, so peak RSS measures
    // the largest round rather than allocator fragmentation across rounds.
    malloc_trim(0);
    RoundsWall += Wall;
    RoundsCpu += Cpu;
    Rounds += 1;
    Cells += R.Cells;
    Attempted += R.Attempted;
    Failed += R.Failed;
    if (I == 0)
      First = std::move(R);
    else if (W.roundsRepeat())
      Correct &= sameLines(First.Lines, R.Lines, "a repeated round");
  }
  const double Window = secondsSince(Start);
  const double PeakRss = peakRssMb();

  // Correctness: replay round 0 through the layers, untraced.
  LayerStats Stats;
  std::vector<std::string> Problems;
  CellLines Replay = W.layerPass(nullptr, O.Threads, Stats, Problems);
  Correct &= sameLines(First.Lines, Replay, "layer-pass replay");
  for (const std::string &P : Problems)
    std::fprintf(stderr, "perfbench: %s\n", P.c_str());
  Correct &= Problems.empty();
  Correct &= matchesReference(O, First.Lines);
  if (!O.DumpCells.empty()) {
    std::ofstream Out(O.DumpCells);
    for (const std::string &L : First.Lines)
      Out << L << "\n";
  }

  std::printf("rounds=%u cells=%llu window_s=%.3f\n", Rounds,
              static_cast<unsigned long long>(Cells), Window);
  std::vector<Metric> EndToEnd = {
      {"cells_per_s", static_cast<double>(Cells) / RoundsWall, "1/s"},
      {"cpu_ms_per_cell", RoundsCpu / static_cast<double>(Cells), "ms"},
      {"peak_rss_mb", PeakRss, "MB"},
      {"setup_s", median(Setup), "s"},
  };
  printTable(EndToEnd);
  printTable({{"failed_frac",
               static_cast<double>(Failed) / static_cast<double>(Attempted),
               "frac"},
              {"output_ok", Correct ? 1.0 : 0.0, "bool"}});
  printResult(Correct, Attempted, Failed, EndToEnd);
  return Correct ? 0 : 1;
}

int tracedRun(const Options &O, BenchWorkload &W) {
  W.setup();
  Clock::time_point T = Clock::now();
  RoundResult R0 = W.round(0);
  const double UntracedMs = secondsSince(T) * 1e3;

  Tracer Stage;
  T = Clock::now();
  CellLines StageLines = W.stagePass(Stage);
  const double StageMs = secondsSince(T) * 1e3;

  Tracer Layer;
  LayerStats S;
  std::vector<std::string> Problems;
  CellLines LayerLines = W.layerPass(&Layer, 1, S, Problems);

  bool Correct = sameLines(R0.Lines, StageLines, "stage pass");
  Correct &= sameLines(R0.Lines, LayerLines, "layer pass");
  for (const std::string &P : Problems)
    std::fprintf(stderr, "perfbench: %s\n", P.c_str());
  Correct &= Problems.empty();
  Correct &= matchesReference(O, R0.Lines);

  if (!O.TraceDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(O.TraceDir, EC);
    for (auto [Pass, Tr] : {std::pair<const char *, Tracer *>{"stage", &Stage},
                            {"layer", &Layer}}) {
      std::string Path = O.TraceDir + "/" + O.Workload + "-" + Pass + ".json";
      if (!Tr->writeChromeJson(Path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    }
  }

  const std::map<std::string, double> Self = Layer.selfMs();
  auto SelfMs = [&](const std::string &Name) {
    auto It = Self.find(Name);
    return It == Self.end() ? 0.0 : It->second;
  };
  auto Ratio = [](double A, double B) { return B > 0.0 ? A / B : 0.0; };
  std::vector<Metric> M;
  M.push_back({"workloads.generate_ms", SelfMs("workloads.generate"), "ms"});
  M.push_back({"frontend.compile_ms", SelfMs("frontend.compile"), "ms"});
  M.push_back({"frontend.compile_calls", double(S.CompileCalls), "count"});
  M.push_back({"transform.opt_ms", SelfMs("transform.opt"), "ms"});
  M.push_back({"transform.clone_ms", SelfMs("transform.clone"), "ms"});
  M.push_back({"transform.clone_calls", double(S.CloneCalls), "count"});
  M.push_back({"transform.ir_insts", double(S.BaselineInsts), "count"});
  for (ObfuscationMode Mode : benchModes()) {
    std::string Name = std::string("obfuscation.") + obfuscationModeName(Mode);
    M.push_back({Name + "_ms", SelfMs(Name), "ms"});
  }
  M.push_back({"obfuscation.fission_phase_ms",
               SelfMs("obfuscation.fission_phase"), "ms"});
  M.push_back({"obfuscation.ir_growth",
               Ratio(double(S.ObfInsts), double(S.ObfBaseInsts)), "ratio"});
  M.push_back({"ir.verify_ms", SelfMs("ir.verify"), "ms"});
  M.push_back({"ir.verify_calls", double(S.VerifyCalls), "count"});
  M.push_back({"codegen.lower_ms", SelfMs("codegen.lower"), "ms"});
  M.push_back({"codegen.minsts", double(S.MInsts), "count"});
  M.push_back({"diffing.features_ms", SelfMs("diffing.features"), "ms"});
  for (const std::string &Tool : diffToolNames())
    M.push_back({"diffing.tool." + Tool + "_ms",
                 SelfMs("diffing.tool." + Tool), "ms"});
  M.push_back({"diffing.precision_ms", SelfMs("diffing.precision"), "ms"});
  const double RunMs = SelfMs("vm.run");
  M.push_back({"vm.precompile_ms", SelfMs("vm.precompile"), "ms"});
  M.push_back({"vm.run_ms", RunMs, "ms"});
  M.push_back({"vm.steps", double(S.VMSteps), "count"});
  M.push_back({"vm.steps_per_s", Ratio(double(S.VMSteps), RunMs / 1e3), "1/s"});

  ArtifactStore::Snapshot Store = R0.Store;
  if (!R0.HasStore)
    W.stageStore(Store);
  M.push_back({"harness.store.hits", double(Store.Hits), "count"});
  M.push_back({"harness.store.misses", double(Store.Misses), "count"});
  M.push_back({"harness.store.hit_ratio",
               Ratio(double(Store.Hits), double(Store.Hits + Store.Misses)),
               "ratio"});
  M.push_back({"harness.store.evictions", double(Store.Evictions), "count"});
  for (size_t I = 0; I != static_cast<size_t>(ArtifactStage::NumStages); ++I)
    M.push_back({std::string("harness.store.") +
                     artifactStageName(static_cast<ArtifactStage>(I)) +
                     ".misses",
                 double(Store.PerStage[I].Misses), "count"});
  for (const char *StageName :
       {"baselineImage", "obfuscatedImage", "fissionStage", "diffOutcome",
        "baselineRun", "obfuscate"}) {
    std::string Base = std::string("harness.stage.") + StageName;
    std::vector<double> D = Stage.durationsMs(Base);
    M.push_back({Base + "_p50_ms", percentile(D, 50), "ms"});
    M.push_back({Base + "_p99_ms", percentile(D, 99), "ms"});
  }
  double Busy = 0.0;
  for (double D : Stage.durationsMs("harness.task"))
    Busy += D;
  M.push_back({"harness.scheduler.busy_frac",
               Ratio(Busy, double(O.Threads) * StageMs), "frac"});
  M.push_back({"harness.fuzz.baseline_errors", double(R0.BaselineErrors),
               "count"});
  M.push_back({"harness.fuzz.divergences", double(R0.Divergences), "count"});
  M.push_back({"harness.trace.stage_wall_ratio", Ratio(StageMs, UntracedMs),
               "ratio"});

  std::printf("untraced_round_ms=%.3f stage_pass_ms=%.3f layer_pass_ms=%.3f\n",
              UntracedMs, StageMs, Layer.wallMs());
  printTable(M);
  printResult(Correct, R0.Attempted, R0.Failed, M);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  std::unique_ptr<BenchWorkload> W =
      makeWorkload(O.Workload, O.Seed, O.Threads);
  std::printf("perfbench workload=%s seed=%llu threads=%u seconds=%u "
              "trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Threads, O.Seconds, O.Trace ? 1 : 0);
  return O.Trace ? tracedRun(O, *W) : timedRun(O, *W);
}
