//===- tools/khaos_fuzz.cpp - Differential obfuscation fuzzer CLI -----------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front-end of the DifferentialFuzzer. Verdict lines and
/// repro files are byte-identical for a given (--seed, --budget, --modes)
/// at any --threads and across reruns; telemetry goes to stderr.
///
///   khaos-fuzz [--seed S] [--budget N] [--threads N] [--modes A,B,...]
///              [--no-shrink] [--repro-dir DIR] [--store-max-bytes B]
///              [--quiet] [--vm reference|precompiled] [--cross-vm]
///              [--list-steps MODE] [--replay FILE]
///
/// --quiet drops the verdict line of every clean case from stdout, which
/// keeps only divergences, baseline errors and the summary; stderr is the
/// same either way.
///
/// Batches always run in this process: the fuzzer builds a fresh store
/// per batch, so a khaos-evald daemon's warm store has nothing to offer
/// it, and --connect is refused like any other unknown flag.
///
/// --vm selects the engine every run executes under; --cross-vm runs each
/// check on BOTH engines and reports any disagreement as its own
/// "engine-mismatch" divergence kind. --replay honors both flags (repro
/// files record the engine that found them, but replay deliberately takes
/// the engine from the command line so old repros run on either engine)
/// and prints which engine produced the verdict.
///
/// Exit status: 0 = no divergence, 1 = divergences found (or a replayed
/// repro still reproduces), 2 = usage error (an unknown flag among them)
/// or a repro that cannot be replayed (malformed, or its baseline fails);
/// `--help` prints the flag table.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "harness/DifferentialFuzzer.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace khaos;

namespace {

/// The fuzzer's own flags, declared in the same table form as the shared
/// rows it honors (BenchFlagSpec).
std::vector<BenchFlagSpec>
fuzzerFlagSpecs(DifferentialFuzzer::Config &Cfg, std::string &ModesSpec,
                std::string &ListStepsMode, std::string &ReplayPath) {
  return {
      {"--budget", "N", "fuzz cases to generate (required)",
       [&Cfg](const char *V) {
         Cfg.Budget = static_cast<unsigned>(
             parseUnsignedFlag(V, "--budget", "khaos-fuzz", UINT_MAX));
       }},
      {"--modes", "A,B,...", "restrict the obfuscation modes exercised",
       [&ModesSpec](const char *V) { ModesSpec = V; }},
      {"--repro-dir", "DIR", "write divergence repro files here",
       [&Cfg](const char *V) { Cfg.ReproDir = V; }},
      {"--list-steps", "MODE", "print MODE's obfuscation steps and exit",
       [&ListStepsMode](const char *V) { ListStepsMode = V; }},
      {"--replay", "FILE", "re-run one repro file and exit",
       [&ReplayPath](const char *V) { ReplayPath = V; }},
      {"--no-shrink", nullptr, "keep divergent cases unshrunk",
       [&Cfg](const char *) { Cfg.Shrink = false; }},
      {"--quiet", nullptr, "drop clean cases' verdict lines from stdout",
       [&Cfg](const char *) { Cfg.Verbose = false; }},
      {"--cross-vm", nullptr, "run each check on BOTH engines",
       [&Cfg](const char *) { Cfg.CrossVM = true; }},
  };
}

[[noreturn]] void usageError(const std::string &Why,
                             const std::vector<BenchFlagSpec> &Specs) {
  std::fprintf(stderr, "khaos-fuzz: %s\n", Why.c_str());
  exitWithUsage(2, "khaos-fuzz", "[flags]", Specs);
}

int listSteps(const std::string &ModeName) {
  ObfuscationMode Mode;
  if (!parseObfuscationModeName(ModeName, Mode)) {
    std::fprintf(stderr, "khaos-fuzz: unknown mode '%s'\n",
                 ModeName.c_str());
    return 2;
  }
  std::vector<std::string> Steps = obfuscationStepNames(Mode);
  std::printf("mode %s: %zu steps\n", obfuscationModeName(Mode),
              Steps.size());
  for (size_t I = 0; I != Steps.size(); ++I)
    std::printf("  %2zu %s\n", I + 1, Steps[I].c_str());
  return 0;
}

int replay(const std::string &Path, const DifferentialFuzzer::Config &Cfg) {
  std::ifstream File(Path, std::ios::binary);
  if (!File) {
    std::fprintf(stderr, "khaos-fuzz: cannot read '%s'\n", Path.c_str());
    return 2;
  }
  std::ostringstream Buf;
  Buf << File.rdbuf();
  ReplayResult R = DifferentialFuzzer(Cfg).replayRepro(Buf.str());
  if (R.State != ReplayResult::Status::Replayed) {
    std::fprintf(stderr, "khaos-fuzz: %s\n", R.Message.c_str());
    return 2;
  }
  const char *Verdict = Cfg.CrossVM ? "cross-vm" : vmEngineName(Cfg.Engine);
  if (R.Kind == DivergenceKind::None) {
    std::printf("replay %s: engine=%s no divergence (bug no longer "
                "reproduces)\n",
                Path.c_str(), Verdict);
    return 0;
  }
  std::printf("replay %s: engine=%s kind=%s : %s\n", Path.c_str(), Verdict,
              divergenceKindName(R.Kind), R.Message.c_str());
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  DifferentialFuzzer::Config Cfg;
  std::string ModesSpec, ListStepsMode, ReplayPath;
  std::vector<BenchFlagSpec> Specs =
      fuzzerFlagSpecs(Cfg, ModesSpec, ListStepsMode, ReplayPath);
  // Of the shared rows the fuzzer takes the four it forwards into Cfg
  // below; the others configure nothing it runs.
  EvalScheduler::Config Sched;
  BuildFlagValues Unused;
  std::vector<BenchFlagSpec> Shared = schedulerFlagSpecs(Sched, "khaos-fuzz");
  for (BenchFlagSpec &S : pipelineFlagSpecs(Sched, "khaos-fuzz", Unused))
    Shared.push_back(std::move(S));
  for (BenchFlagSpec &S : Shared)
    for (const char *Name :
         {"--threads", "--seed", "--store-max-bytes", "--vm"})
      if (std::strcmp(S.Name, Name) == 0)
        Specs.push_back(std::move(S));
  parseBenchFlags(argc, argv, Specs);

  Cfg.Seed = Sched.Seed;
  Cfg.Threads = Sched.Threads;
  Cfg.Engine = Sched.Engine;
  Cfg.StoreMaxBytes = Sched.StoreMaxBytes ? Sched.StoreMaxBytes
                                          : Cfg.StoreMaxBytes;

  if (!ListStepsMode.empty())
    return listSteps(ListStepsMode);
  if (!ReplayPath.empty())
    return replay(ReplayPath, Cfg);

  if (!ModesSpec.empty()) {
    for (const std::string &Name : split(ModesSpec, ',')) {
      if (Name.empty())
        continue;
      ObfuscationMode Mode;
      if (!parseObfuscationModeName(Name, Mode))
        usageError("unknown mode '" + Name + "' in --modes", Specs);
      Cfg.Modes.push_back(Mode);
    }
    if (Cfg.Modes.empty())
      usageError("--modes requires at least one mode name", Specs);
  }
  if (Cfg.Budget == 0)
    usageError("--budget N is required", Specs);

  DifferentialFuzzer Fuzzer(Cfg);
  FuzzReport Report = Fuzzer.run();
  std::fprintf(stderr,
               "[khaos-fuzz] cases=%u cells=%u divergences=%zu "
               "baseline-errors=%u\n",
               Report.Cases, Report.Cells, Report.Divergences.size(),
               Report.BaselineErrors);
  return Report.Divergences.empty() ? 0 : 1;
}
