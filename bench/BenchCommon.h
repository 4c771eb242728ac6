//===- bench/BenchCommon.h - Shared bench plumbing --------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure bench binaries and the khaos-fuzz and
/// khaos-evald front-ends. Each binary reads its command line once, from
/// one flag table (parseBenchFlags); `--help` prints that table. Set
/// KHAOS_QUICK=1 in the environment to run each figure on a reduced
/// workload sample (for smoke-testing the harness). A bench's stdout is
/// byte-identical at every thread count, shard split and cache setting;
/// scheduler diagnostics, cache telemetry and wall-clock timings go to
/// stderr.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_BENCH_BENCHCOMMON_H
#define KHAOS_BENCH_BENCHCOMMON_H

#include "diffing/SubprocessDiffTool.h"
#include "harness/BinTuner.h"
#include "harness/EvalScheduler.h"
#include "harness/Evaluator.h"
#include "harness/TableRenderer.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

namespace khaos {

inline bool quickMode() {
  const char *Env = std::getenv("KHAOS_QUICK");
  return Env && Env[0] == '1';
}

/// Thins a workload list to every Nth element in quick mode.
inline std::vector<Workload> maybeThin(std::vector<Workload> W,
                                       size_t KeepEvery = 6) {
  if (!quickMode())
    return W;
  std::vector<Workload> Out;
  for (size_t I = 0; I < W.size(); I += KeepEvery)
    Out.push_back(std::move(W[I]));
  return Out;
}

/// Strict parser behind every numeric flag: the store/disk capacities,
/// --threads, --seed, --shards, --shard-index, --tool-timeout-ms and
/// khaos-fuzz's --budget. strtoul alone is too forgiving: it wraps "-1"
/// to the type's maximum, reads "12xyz" as 12 and "abc" as 0 (a zero
/// --tool-timeout-ms silently means "wait forever"), and saturates
/// overflow. Accepts only what parseUnsigned (support/StringUtils.h)
/// accepts, no larger than \p Max — the grammar a repro's obf-seed header
/// is read with. Anything else exits 2 with a message naming the flag and
/// the value, the convention `--tools` validation uses.
inline uint64_t parseUnsignedFlag(const char *V, const char *Flag,
                                  const char *Bench,
                                  uint64_t Max = UINT64_MAX) {
  uint64_t N = 0;
  if (!parseUnsigned(V, N) || N > Max) {
    std::fprintf(stderr,
                 "%s: invalid value '%s' for %s\n"
                 "usage: %s N with N a non-negative integer (decimal or "
                 "0x-hex) no larger than %llu\n",
                 Bench, V, Flag, Flag, static_cast<unsigned long long>(Max));
    std::exit(2);
  }
  return N;
}

/// One declarative flag: spelling, optional value placeholder (null for
/// boolean flags), one-line help, and the action run when it matches. A
/// binary's table is its own rows plus the shared rows it honors; the same
/// table parses its command line and renders its usage, so the two cannot
/// drift.
struct BenchFlagSpec {
  const char *Name;      ///< "--threads"
  const char *ValueName; ///< "N", or nullptr for a boolean flag.
  const char *Help;      ///< One-line description for usage text.
  std::function<void(const char *)> Apply; ///< Value (nullptr if boolean).
};

/// Renders aligned "  --flag V   help" lines for \p Specs, plus the
/// `--help` line every binary answers.
inline std::string benchFlagUsage(const std::vector<BenchFlagSpec> &Specs) {
  std::string Out;
  auto Line = [&Out](std::string Head, const char *Help) {
    Head.insert(0, "  ");
    if (Head.size() < 28)
      Head.resize(28, ' ');
    Out += Head + Help + "\n";
  };
  for (const BenchFlagSpec &S : Specs)
    Line(S.ValueName ? std::string(S.Name) + " " + S.ValueName : S.Name,
         S.Help);
  Line("-h, --help", "print this usage text and exit");
  return Out;
}

/// Prints "usage: PROG SYNOPSIS" and the rows of \p Specs, then exits with
/// \p Status: 0 puts the text on stdout (the `--help` answer), anything
/// else on stderr after the caller's error line.
[[noreturn]] inline void
exitWithUsage(int Status, const char *Prog, const char *Synopsis,
              const std::vector<BenchFlagSpec> &Specs) {
  std::fprintf(Status ? stderr : stdout, "usage: %s %s\n%s", Prog, Synopsis,
               benchFlagUsage(Specs).c_str());
  std::exit(Status);
}

/// The one reader of a binary's argv. Every argument must be a row of
/// \p Specs, spelled `--flag V`, `--flag=V` or, for a boolean, bare; the
/// rows' actions run in argv order. An unknown flag, a positional word, a
/// value flag with no value or a value on a boolean names the argument
/// and exits 2 with the usage before any work starts; `--help` and `-h`
/// print the usage on stdout and exit 0.
inline void parseBenchFlags(int Argc, char **Argv,
                            const std::vector<BenchFlagSpec> &Specs,
                            const char *Synopsis = "[flags]") {
  const char *Prog = Argc > 0 ? Argv[0] : "bench";
  auto Refuse = [&](const std::string &Why) {
    std::fprintf(stderr, "%s: %s\n", Prog, Why.c_str());
    exitWithUsage(2, Prog, Synopsis, Specs);
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h")
      exitWithUsage(0, Prog, Synopsis, Specs);
    size_t Eq = Arg.find('=');
    std::string Name = Arg.substr(0, Eq);
    auto Row = std::find_if(
        Specs.begin(), Specs.end(),
        [&Name](const BenchFlagSpec &S) { return Name == S.Name; });
    if (Row == Specs.end())
      Refuse(formatStr(Arg[0] == '-' ? "unknown flag '%s'"
                                     : "unexpected argument '%s'",
                       Arg.c_str()));
    else if (!Row->ValueName && Eq != std::string::npos)
      Refuse(formatStr("flag '%s' takes no value", Arg.c_str()));
    else if (!Row->ValueName)
      Row->Apply(nullptr);
    else if (Eq != std::string::npos)
      Row->Apply(Argv[I] + Eq + 1);
    else if (I + 1 < Argc)
      Row->Apply(Argv[++I]);
    else
      Refuse(formatStr("flag '%s' requires a value", Arg.c_str()));
  }
}

/// Rows khaos-fuzz shares with the scheduler benches, each writing the
/// field it is handed (a DifferentialFuzzer or EvalScheduler config).
inline BenchFlagSpec threadsFlag(unsigned &Out, const char *Bench) {
  return {"--threads", "N", "scheduler worker threads (0 = hardware)",
          [&Out, Bench](const char *V) {
            Out = static_cast<unsigned>(
                parseUnsignedFlag(V, "--threads", Bench, UINT_MAX));
          }};
}

inline BenchFlagSpec seedFlag(uint64_t &Out, const char *Bench) {
  return {"--seed", "S", "base run seed (cell seeds derive from it)",
          [&Out, Bench](const char *V) {
            Out = parseUnsignedFlag(V, "--seed", Bench);
          }};
}

inline BenchFlagSpec storeMaxBytesFlag(uint64_t &Out, const char *Bench) {
  return {"--store-max-bytes", "B", "LRU-bound the in-memory artifact store",
          [&Out, Bench](const char *V) {
            Out = parseUnsignedFlag(V, "--store-max-bytes", Bench);
          }};
}

/// The shared rows that configure the scheduler: its worker count, run
/// seed, cross-process shard split and the khaos-evald route.
inline std::vector<BenchFlagSpec>
schedulerFlagSpecs(EvalScheduler::Config &C, const char *Bench) {
  return {
      threadsFlag(C.Threads, Bench),
      seedFlag(C.Seed, Bench),
      {"--shards", "N", "split the matrix across N processes",
       [&C, Bench](const char *V) {
         C.Shards = static_cast<unsigned>(
             parseUnsignedFlag(V, "--shards", Bench, UINT_MAX));
       }},
      {"--shard-index", "I", "which shard this process owns (0-based)",
       [&C, Bench](const char *V) {
         C.ShardIdx = static_cast<unsigned>(
             parseUnsignedFlag(V, "--shard-index", Bench, UINT_MAX));
       }},
      {"--connect", "SOCKET", "route eval work to a khaos-evald daemon",
       [&C](const char *V) { C.ConnectPath = V; }},
  };
}

/// Raw `--baseline-opt` / `--codegen` / `--compiler-style` values, stashed
/// during the walk and resolved afterwards by resolveBaselineFlags (their
/// validity does not depend on argv order that way).
struct BuildFlagValues {
  std::string Opt, Codegen, Style;
};

/// Shared pipeline rows that bench_vm_engines also takes, one factory
/// each, so pipelineFlagSpecs and that bench render one copy of the text.
inline BenchFlagSpec noCacheFlag(bool &CacheEnabled) {
  return {"--no-cache", nullptr, "recompute every artifact (identical output)",
          [&CacheEnabled](const char *) { CacheEnabled = false; }};
}

inline BenchFlagSpec baselineOptFlag(BuildFlagValues &Build) {
  return {"--baseline-opt", "L[,L...]",
          "baseline build level(s) O0..O3; a comma list is a confound axis",
          [&Build](const char *V) { Build.Opt = V; }};
}

/// The shared rows that configure the pipeline (EvalScheduler::Config's
/// pipelineConfig() half, plus the diff-worker timeout): the artifact
/// store and its disk tier and the baseline build config.
inline std::vector<BenchFlagSpec>
pipelineFlagSpecs(EvalScheduler::Config &C, const char *Bench,
                  BuildFlagValues &Build) {
  return {
      noCacheFlag(C.CacheEnabled),
      storeMaxBytesFlag(C.StoreMaxBytes, Bench),
      {"--cache-dir", "DIR", "persist serializable artifacts on disk",
       [&C](const char *V) { C.CacheDir = V; }},
      {"--disk-max-bytes", "B", "capacity of the on-disk cache tier",
       [&C, Bench](const char *V) {
         C.DiskMaxBytes = parseUnsignedFlag(V, "--disk-max-bytes", Bench);
       }},
      {"--tool-timeout-ms", "T", "round-trip budget of -oop diff backends",
       [Bench](const char *V) {
         // A process-wide knob of the worker pool, not scheduler state.
         // The pool hands it to poll() as an int.
         setDiffWorkerTimeoutMs(static_cast<unsigned>(
             parseUnsignedFlag(V, "--tool-timeout-ms", Bench, INT_MAX)));
       }},
      baselineOptFlag(Build),
      {"--codegen", "T[,T...]",
       "baseline codegen tweaks: [no-]{spill,lea,cmov,jump-tables,"
       "align-loops}",
       [&Build](const char *V) { Build.Codegen = V; }},
      {"--compiler-style", "S[,S...]",
       "baseline lowering personality clang|gcc; a comma list is a "
       "confound axis",
       [&Build](const char *V) { Build.Style = V; }},
  };
}

/// Resolves the stashed `--baseline-opt` / `--codegen` /
/// `--compiler-style` values. A single level (and a single style) becomes
/// the run's pipeline baseline (Config::Baseline — checked against a
/// --connect daemon's ping). A multi-entry list is a confound axis: only
/// benches passing \p BaselineAxis (levels) / \p StyleAxis (styles)
/// accept one; everywhere else it is a usage error, not a silent
/// truncation.
inline void resolveBaselineFlags(EvalScheduler::Config &C, const char *Bench,
                                 const BuildFlagValues &Build,
                                 std::vector<BuildConfig> *BaselineAxis,
                                 std::vector<CompilerStyle> *StyleAxis) {
  std::string Err;
  std::vector<BuildConfig> Configs;
  if (!Build.Opt.empty() && !parseBaselineOptList(Build.Opt, Configs, Err)) {
    std::fprintf(stderr,
                 "%s: %s\nusage: --baseline-opt LEVEL[,LEVEL...] with LEVEL "
                 "one of O0 O1 O2 O3\n",
                 Bench, Err.c_str());
    std::exit(2);
  }
  if (!Build.Codegen.empty()) {
    CodegenOptions Probe = C.Baseline.Codegen;
    if (!applyCodegenTokens(Build.Codegen, Probe, Err)) {
      std::fprintf(stderr, "%s: %s\n", Bench, Err.c_str());
      std::exit(2);
    }
    C.Baseline.Codegen = Probe;
    for (BuildConfig &BC : Configs)
      applyCodegenTokens(Build.Codegen, BC.Codegen, Err); // Validated above.
  }
  std::vector<CompilerStyle> Styles;
  if (!Build.Style.empty() &&
      !parseCompilerStyleList(Build.Style, Styles, Err)) {
    std::fprintf(stderr,
                 "%s: %s\nusage: --compiler-style STYLE[,STYLE...] with "
                 "STYLE one of clang gcc\n",
                 Bench, Err.c_str());
    std::exit(2);
  }
  if (Styles.size() == 1) {
    C.Baseline.Codegen.Style = Styles[0];
    for (BuildConfig &BC : Configs)
      BC.Codegen.Style = Styles[0];
  } else if (Styles.size() > 1 && !StyleAxis) {
    std::fprintf(stderr,
                 "%s: --compiler-style with multiple styles is a confound "
                 "axis; this bench takes a single baseline style\n",
                 Bench);
    std::exit(2);
  }
  if (Configs.size() == 1)
    C.Baseline = Configs[0];
  else if (Configs.size() > 1 && !BaselineAxis) {
    std::fprintf(stderr,
                 "%s: --baseline-opt with multiple levels is a confound "
                 "axis; this bench takes a single baseline config\n",
                 Bench);
    std::exit(2);
  }
  if (BaselineAxis && !Configs.empty())
    *BaselineAxis = std::move(Configs);
  if (StyleAxis && Styles.size() > 1)
    *StyleAxis = std::move(Styles);
}

/// Reads a scheduler bench's command line: the bench's own rows \p Own
/// followed by the whole shared table (schedulerFlagSpecs, then
/// pipelineFlagSpecs). Benches with a build-config axis pass
/// \p BaselineAxis to receive the `--baseline-opt` comma list as
/// BuildConfigs, and \p StyleAxis to receive a multi-entry
/// `--compiler-style` list.
inline EvalScheduler::Config
parseSchedulerArgs(int Argc, char **Argv, std::vector<BenchFlagSpec> Own = {},
                   std::vector<BuildConfig> *BaselineAxis = nullptr,
                   std::vector<CompilerStyle> *StyleAxis = nullptr) {
  EvalScheduler::Config C;
  const char *Bench = Argc > 0 ? Argv[0] : "bench";
  BuildFlagValues Build;
  std::vector<BenchFlagSpec> Specs = std::move(Own);
  for (BenchFlagSpec &S : schedulerFlagSpecs(C, Bench))
    Specs.push_back(std::move(S));
  for (BenchFlagSpec &S : pipelineFlagSpecs(C, Bench, Build))
    Specs.push_back(std::move(S));
  parseBenchFlags(Argc, Argv, Specs);
  // The scheduler reads --shards 0 as 1 and aborts on an index outside
  // the split; at the command line that is a usage error.
  if (C.ShardIdx >= std::max(C.Shards, 1u)) {
    std::fprintf(stderr,
                 "%s: --shard-index %u out of range for --shards %u "
                 "(expected 0..%u)\n",
                 Bench, C.ShardIdx, C.Shards, std::max(C.Shards, 1u) - 1);
    std::exit(2);
  }
  resolveBaselineFlags(C, Bench, Build, BaselineAxis, StyleAxis);
  return C;
}

/// The `--print-cells` row of the matrix benches that can print one
/// sortable line per cell instead of aggregate tables.
inline BenchFlagSpec printCellsFlag(bool &On) {
  return {"--print-cells", nullptr,
          "print sortable per-cell lines (shard outputs merge by sort)",
          [&On](const char *) { On = true; }};
}

/// The `--tools A,B,...` row of the diffing benches. Its action validates
/// every name against the DiffTool registry *before* the caller spawns
/// scheduler threads (createDiffTool aborts on unknown names — mid-matrix
/// that would kill a half-finished run). Matching is case-insensitive
/// against the registered spelling (`--tools safe,safe-oop` resolves to
/// SAFE + safe-oop); every name the caller sees — the list in \p Out, and
/// the names echoed in diagnostics — is the canonical registry spelling,
/// never the user's casing. Repeated names (`--tools safe,SAFE`) are
/// deduplicated to the first occurrence (with a stderr note) instead of
/// running the tool twice. An unknown name prints the registered names and
/// exits 2. \p Out keeps the caller's default when the flag is absent.
inline BenchFlagSpec toolsFlag(std::vector<std::string> &Out,
                               const char *Bench) {
  return {
      "--tools", "A,B,...",
      "diffing tools to run (registry names, case-insensitive)",
      [&Out, Bench](const char *Spec) {
        auto Lower = [](std::string S) {
          for (char &C : S)
            C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
          return S;
        };
        std::vector<std::string> Known = registeredToolNames();
        std::vector<std::string> Tools;
        for (const std::string &Name : split(Spec, ',')) {
          if (Name.empty())
            continue;
          auto Match = std::find_if(
              Known.begin(), Known.end(),
              [&](const std::string &K) { return Lower(K) == Lower(Name); });
          if (Match == Known.end()) {
            std::fprintf(stderr,
                         "%s: unknown diffing tool '%s' in --tools\n"
                         "usage: --tools NAME[,NAME...] with registered "
                         "tools:",
                         Bench, Name.c_str());
            for (const std::string &K : Known)
              std::fprintf(stderr, " %s", K.c_str());
            std::fprintf(stderr, "\n");
            std::exit(2);
          }
          // Dedupe against the canonical spelling: `--tools safe,SAFE`
          // must run SAFE once, not twice (a duplicate would double its
          // matrix rows and its (cell x tool) tasks).
          if (std::find(Tools.begin(), Tools.end(), *Match) != Tools.end()) {
            std::fprintf(stderr,
                         "%s: duplicate tool '%s' in --tools ignored\n",
                         Bench, Match->c_str());
            continue;
          }
          Tools.push_back(*Match);
        }
        if (Tools.empty()) {
          std::fprintf(stderr, "%s: --tools requires at least one tool name\n",
                       Bench);
          std::exit(2);
        }
        Out = std::move(Tools);
      }};
}

/// Minimal JSON writer for the BENCH_*.json artifacts: flat objects and
/// arrays of flat objects, written with stable key order so committed
/// trajectories diff cleanly run-over-run.
class BenchJsonWriter {
public:
  void set(const std::string &Key, const std::string &V) {
    Scalars.emplace_back(Key, quoted(V));
  }
  void set(const std::string &Key, double V) {
    Scalars.emplace_back(Key, formatStr("%.6g", V));
  }
  void set(const std::string &Key, uint64_t V) {
    Scalars.emplace_back(Key,
                         std::to_string(static_cast<unsigned long long>(V)));
  }
  void set(const std::string &Key, int V) {
    Scalars.emplace_back(Key, std::to_string(V));
  }
  void set(const std::string &Key, bool V) {
    Scalars.emplace_back(Key, V ? "true" : "false");
  }

  /// Appends one row to the array field \p Key (rows print after scalars).
  void addRow(const std::string &Key, const BenchJsonWriter &Row) {
    Rows.emplace_back(Key, Row.object());
  }

  /// Renders the object: scalars first, then array fields grouped by key
  /// in first-appearance order.
  std::string object() const {
    std::string Out = "{";
    bool First = true;
    for (const auto &KV : Scalars) {
      Out += (First ? "" : ", ");
      Out += quoted(KV.first);
      Out += ": ";
      Out += KV.second;
      First = false;
    }
    std::vector<std::string> SeenKeys;
    for (const auto &KV : Rows) {
      bool Seen = false;
      for (const std::string &S : SeenKeys)
        Seen = Seen || S == KV.first;
      if (Seen)
        continue;
      SeenKeys.push_back(KV.first);
      Out += (First ? "" : ", ");
      Out += quoted(KV.first);
      Out += ": [";
      bool FirstRow = true;
      for (const auto &RV : Rows)
        if (RV.first == KV.first) {
          Out += (FirstRow ? "" : ", ") + RV.second;
          FirstRow = false;
        }
      Out += "]";
      First = false;
    }
    Out += "}";
    return Out;
  }

  /// Writes the object (newline-terminated) to \p Path; loud on failure —
  /// a CI artifact that silently vanished would read as a perf regression.
  bool writeFile(const std::string &Path, const char *Bench) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "%s: cannot write --json file '%s'\n", Bench,
                   Path.c_str());
      return false;
    }
    std::string Body = object();
    Body += "\n";
    std::fwrite(Body.data(), 1, Body.size(), F);
    std::fclose(F);
    return true;
  }

private:
  static std::string quoted(const std::string &S) {
    std::string Out;
    Out += '"';
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    Out += '"';
    return Out;
  }

  std::vector<std::pair<std::string, std::string>> Scalars;
  std::vector<std::pair<std::string, std::string>> Rows;
};

/// Benches whose stdout is only an aggregate table must refuse --shards:
/// a table computed from one shard's cells looks complete but is silently
/// wrong. Shardable benches (fig6/fig7/fig8) switch to a per-cell line
/// format instead, whose sorted shard outputs merge losslessly.
inline void requireUnsharded(const EvalScheduler &S, const char *Bench) {
  if (S.shardCount() <= 1)
    return;
  std::fprintf(stderr,
               "%s: this bench prints whole-matrix aggregates and cannot "
               "compose shard outputs; use --shards with fig6_overhead, "
               "fig7_ollvm_overhead or fig8_precision (per-cell output "
               "mode)\n",
               Bench);
  std::exit(2);
}

/// Benches that compute their cells with direct pipeline calls rather than
/// the scheduler's matrix front-ends must refuse --connect: the scheduler
/// would ping the daemon and then run every cell in-process anyway. Call
/// it on the parsed config, before the scheduler is built.
inline void requireInProcess(const EvalScheduler::Config &C,
                             const char *Bench) {
  if (C.ConnectPath.empty())
    return;
  std::fprintf(stderr,
               "%s: this bench computes its cells in-process and cannot "
               "use a khaos-evald daemon; use --connect with the overhead "
               "and diffing matrix benches (fig6, fig7, fig8, "
               "fig9_confound, fig10, table3)\n",
               Bench);
  std::exit(2);
}

/// Per-cell overhead lines: "cell <matrix> <flat> <workload> <mode>
/// <percent|n/a>". The zero-padded flat index makes lexicographic order
/// equal matrix order, so `sort` merges shard outputs into the unsharded
/// dump (same contract as fig8's precision cell lines).
inline void
printOverheadCellLines(const char *MatrixId,
                       const std::vector<EvalScheduler::CellOverhead> &Cells,
                       const std::vector<Workload> &Workloads,
                       const std::vector<ObfuscationMode> &Modes) {
  for (size_t WI = 0; WI != Workloads.size(); ++WI)
    for (size_t MI = 0; MI != Modes.size(); ++MI) {
      const EvalScheduler::CellOverhead &Cell = Cells[WI * Modes.size() + MI];
      if (!Cell.Ran)
        continue;
      std::printf("cell %s %06zu %s %s %s\n", MatrixId,
                  WI * Modes.size() + MI, Workloads[WI].Name.c_str(),
                  obfuscationModeName(Modes[MI]),
                  Cell.Ok ? TableRenderer::fmtPercent(Cell.Percent).c_str()
                          : "n/a");
    }
}

/// Table headers: \p First, then one column per mode named by
/// obfuscationModeName, so a header cannot mislabel or drop a mode column.
inline std::vector<std::string>
modeHeaders(std::vector<std::string> First,
            const std::vector<ObfuscationMode> &Modes) {
  for (ObfuscationMode M : Modes)
    First.push_back(obfuscationModeName(M));
  return First;
}

/// Scheduler diagnostics go to stderr so stdout stays byte-identical
/// across thread counts, shard decompositions and cache settings.
inline void reportScheduler(const EvalScheduler &S, const EvalRunStats &R) {
  std::fprintf(stderr,
               "[scheduler] threads=%u seed=0x%llx shard=%u/%u cells=%zu "
               "failures=%zu tool-failures=%zu\n",
               S.threadCount(),
               static_cast<unsigned long long>(S.baseSeed()), S.shardIndex(),
               S.shardCount(), R.Cells, R.Failures, R.ToolFailures);
  const ArtifactStore::Snapshot &C = R.Cache;
  std::fprintf(stderr,
               "[cache] %s hits=%llu misses=%llu evictions=%llu "
               "recompile-bytes-saved=%llu\n",
               S.pipeline().store().enabled() ? "on" : "off",
               static_cast<unsigned long long>(C.Hits),
               static_cast<unsigned long long>(C.Misses),
               static_cast<unsigned long long>(C.Evictions),
               static_cast<unsigned long long>(C.BytesSaved));
  if (S.pipeline().store().diskCache())
    std::fprintf(stderr,
                 "[disk] disk-hits=%llu disk-misses=%llu "
                 "disk-evictions=%llu disk-corrupt=%llu\n",
                 static_cast<unsigned long long>(C.DiskHits),
                 static_cast<unsigned long long>(C.DiskMisses),
                 static_cast<unsigned long long>(C.DiskEvictions),
                 static_cast<unsigned long long>(C.DiskCorrupt));
  if (!R.Passes.empty())
    std::fprintf(stderr,
                 "[passes] sites-rewritten=%u strings-encrypted=%u "
                 "blocks-split=%u blocks-inserted=%u bytes-grown=%llu\n",
                 R.Passes.SitesRewritten, R.Passes.StringsEncrypted,
                 R.Passes.BlocksSplit, R.Passes.BlocksInserted,
                 static_cast<unsigned long long>(R.Passes.BytesGrown));
}

inline void printHeader(const char *Id, const char *Caption) {
  std::printf("==============================================================="
              "=\n%s — %s\n"
              "================================================================"
              "\n",
              Id, Caption);
}

} // namespace khaos

#endif // KHAOS_BENCH_BENCHCOMMON_H
