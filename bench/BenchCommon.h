//===- bench/BenchCommon.h - Shared bench plumbing --------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure bench binaries. Set KHAOS_QUICK=1 in
/// the environment to run each figure on a reduced workload sample (for
/// smoke-testing the harness). Benches that fan out over the EvalScheduler
/// accept `--threads N`, `--seed S`, `--no-cache` (recompute every
/// artifact; results are identical, only slower), `--shards N
/// --shard-index I` (cross-process split of the matrix by FlatIdx %
/// Shards), `--store-max-bytes B` (LRU-bound the ArtifactStore; evicted
/// stages recompute, output is unchanged), `--cache-dir DIR
/// --disk-max-bytes B` (persist serializable artifacts to a
/// content-addressed on-disk tier; a warm rerun recompiles nothing and
/// prints identical stdout), `--connect SOCKET` (route eval work to a
/// running khaos-evald daemon instead of computing in-process; stdout is
/// byte-identical either way), `--tool-timeout-ms T` (the
/// round-trip budget of out-of-process diffing backends), `--vm
/// reference|precompiled` (which execution engine runs programs; both
/// produce byte-identical stdout), `--baseline-opt L[,L...]` (the baseline
/// build level; a comma list is the confound axis of benches that take
/// one), `--codegen T[,T...]` (codegen tweaks layered onto the
/// baseline config) and `--compiler-style S[,S...]` (the clang|gcc
/// lowering personality; a comma list is the cross-compiler confound
/// axis of benches that take one). `--json PATH` makes supporting
/// benches
/// additionally write a machine-readable BENCH_*.json result file (the
/// committed perf trajectory — see bench/vm_engines.cpp); their stdout is
/// byte-identical at every thread count (scheduler diagnostics, including
/// cache telemetry, go to stderr). `--print-cells` switches matrix
/// benches that support it to a per-(cell × tool) line format whose shard
/// outputs merge losslessly. Diffing benches accept `--tools A,B,...`
/// (registry names, case-insensitive), validated up front against
/// registeredToolNames() before any thread spawns.
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
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

/// `--flag V` / `--flag=V` accessor shared by parseSchedulerArgs and the
/// tool front-ends (khaos-fuzz): returns the value of \p Flag when Argv[I]
/// spells it, advancing \p I past a separate value token; null otherwise.
inline const char *flagValue(int Argc, char **Argv, int &I,
                             const char *Flag) {
  std::string Arg = Argv[I];
  std::string Eq = std::string(Flag) + "=";
  if (Arg.rfind(Eq, 0) == 0)
    return Argv[I] + Eq.size();
  if (Arg == Flag && I + 1 < Argc)
    return Argv[++I];
  return nullptr;
}

/// Strict parser behind every numeric flag: the store/disk capacities,
/// --threads, --seed, --shards, --shard-index, --tool-timeout-ms and
/// khaos-fuzz's --budget. strtoul alone is too forgiving: it wraps "-1"
/// to the type's maximum, reads "12xyz" as 12 and "abc" as 0 (a zero
/// --tool-timeout-ms silently means "wait forever"), and saturates
/// overflow. Accepts only a whole decimal or 0x-hex token no larger than
/// \p Max; a leading 0 before more digits (octal to strtoull) is refused
/// as ambiguous. Anything else exits 2 with a message naming the flag and
/// the value, the convention `--tools` validation uses.
inline uint64_t parseUnsignedFlag(const char *V, const char *Flag,
                                  const char *Bench,
                                  uint64_t Max = UINT64_MAX) {
  bool Hex = V[0] == '0' && (V[1] == 'x' || V[1] == 'X');
  const char *Digits = Hex ? V + 2 : V;
  size_t Len = std::strlen(Digits);
  bool Bad = Len == 0 || (!Hex && Digits[0] == '0' && Len > 1);
  for (size_t I = 0; I != Len; ++I) {
    unsigned char C = static_cast<unsigned char>(Digits[I]);
    Bad |= !(Hex ? std::isxdigit(C) : std::isdigit(C));
  }
  errno = 0;
  unsigned long long N = std::strtoull(Digits, nullptr, Hex ? 16 : 10);
  if (Bad || errno == ERANGE || N > Max) {
    std::fprintf(stderr,
                 "%s: invalid value '%s' for %s\n"
                 "usage: %s N with N a non-negative integer (decimal or "
                 "0x-hex) no larger than %llu\n",
                 Bench, V, Flag, Flag, static_cast<unsigned long long>(Max));
    std::exit(2);
  }
  return static_cast<uint64_t>(N);
}

/// One declarative flag: spelling, optional value placeholder (null for
/// boolean flags), one-line help, and the action run when it matches. The
/// single table in schedulerFlagSpecs is what every bench and tool
/// front-end parses and prints usage from — a new flag added there gets
/// validation and usage text everywhere at once.
struct BenchFlagSpec {
  const char *Name;      ///< "--threads"
  const char *ValueName; ///< "N", or nullptr for a boolean flag.
  const char *Help;      ///< One-line description for usage text.
  std::function<void(const char *)> Apply; ///< Value (nullptr if boolean).
};

/// Applies every matching spec across \p Argv (`--flag V` and `--flag=V`
/// spellings; boolean flags match exactly). Arguments matching no spec are
/// ignored so benches stay forgiving in scripts and front-ends can layer
/// their own tables over the shared one.
inline void applyBenchFlags(int Argc, char **Argv,
                            const std::vector<BenchFlagSpec> &Specs) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    for (const BenchFlagSpec &S : Specs) {
      if (S.ValueName) {
        if (const char *V = flagValue(Argc, Argv, I, S.Name)) {
          S.Apply(V);
          break;
        }
      } else if (Arg == S.Name) {
        S.Apply(nullptr);
        break;
      }
    }
  }
}

/// Renders aligned "  --flag V   help" lines for \p Specs — the usage text
/// is generated from the same table that parses, so the two cannot drift.
inline std::string benchFlagUsage(const std::vector<BenchFlagSpec> &Specs) {
  std::string Out;
  for (const BenchFlagSpec &S : Specs) {
    std::string Head = "  ";
    Head += S.Name;
    if (S.ValueName) {
      Head += ' ';
      Head += S.ValueName;
    }
    while (Head.size() < 28)
      Head += ' ';
    Out += Head;
    Out += S.Help;
    Out += '\n';
  }
  return Out;
}

/// The shared scheduler/pipeline flag table. Raw `--baseline-opt` /
/// `--codegen` / `--compiler-style` values are stashed into the string
/// outs during the walk and resolved afterwards by resolveBaselineFlags
/// (their validity does not depend on argv order that way).
inline std::vector<BenchFlagSpec>
schedulerFlagSpecs(EvalScheduler::Config &C, const char *Bench,
                   std::string &BaselineSpec, std::string &CodegenSpec,
                   std::string &StyleSpec) {
  return {
      {"--threads", "N", "scheduler worker threads (0 = hardware)",
       [&C, Bench](const char *V) {
         C.Threads = static_cast<unsigned>(
             parseUnsignedFlag(V, "--threads", Bench, UINT_MAX));
       }},
      {"--seed", "S", "base run seed (cell seeds derive from it)",
       [&C, Bench](const char *V) {
         C.Seed = parseUnsignedFlag(V, "--seed", Bench);
       }},
      {"--no-cache", nullptr, "recompute every artifact (identical output)",
       [&C](const char *) { C.CacheEnabled = false; }},
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
      {"--store-max-bytes", "B", "LRU-bound the in-memory artifact store",
       [&C, Bench](const char *V) {
         C.StoreMaxBytes = parseUnsignedFlag(V, "--store-max-bytes", Bench);
       }},
      {"--cache-dir", "DIR", "persist serializable artifacts on disk",
       [&C](const char *V) { C.CacheDir = V; }},
      {"--disk-max-bytes", "B", "capacity of the on-disk cache tier",
       [&C, Bench](const char *V) {
         C.DiskMaxBytes = parseUnsignedFlag(V, "--disk-max-bytes", Bench);
       }},
      {"--connect", "SOCKET", "route eval work to a khaos-evald daemon",
       [&C](const char *V) { C.ConnectPath = V; }},
      {"--tool-timeout-ms", "T", "round-trip budget of -oop diff backends",
       [Bench](const char *V) {
         // A process-wide knob of the worker pool, not scheduler state.
         // The pool hands it to poll() as an int.
         setDiffWorkerTimeoutMs(static_cast<unsigned>(
             parseUnsignedFlag(V, "--tool-timeout-ms", Bench, INT_MAX)));
       }},
      {"--vm", "ENGINE", "execution engine: reference|precompiled",
       [&C](const char *V) {
         if (!parseVMEngineName(V, C.Engine)) {
           std::fprintf(stderr,
                        "unknown --vm engine '%s' (expected 'reference' or "
                        "'precompiled')\n",
                        V);
           std::exit(2);
         }
       }},
      {"--baseline-opt", "L[,L...]",
       "baseline build level(s) O0..O3; a comma list is a confound axis",
       [&BaselineSpec](const char *V) { BaselineSpec = V; }},
      {"--codegen", "T[,T...]",
       "baseline codegen tweaks: [no-]{spill,lea,cmov,jump-tables,"
       "align-loops}",
       [&CodegenSpec](const char *V) { CodegenSpec = V; }},
      {"--compiler-style", "S[,S...]",
       "baseline lowering personality clang|gcc; a comma list is a "
       "confound axis",
       [&StyleSpec](const char *V) { StyleSpec = V; }},
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
                                 const std::string &BaselineSpec,
                                 const std::string &CodegenSpec,
                                 const std::string &StyleSpec,
                                 std::vector<BuildConfig> *BaselineAxis,
                                 std::vector<CompilerStyle> *StyleAxis) {
  std::string Err;
  std::vector<BuildConfig> Configs;
  if (!BaselineSpec.empty() &&
      !parseBaselineOptList(BaselineSpec, Configs, Err)) {
    std::fprintf(stderr,
                 "%s: %s\nusage: --baseline-opt LEVEL[,LEVEL...] with LEVEL "
                 "one of O0 O1 O2 O3\n",
                 Bench, Err.c_str());
    std::exit(2);
  }
  if (!CodegenSpec.empty()) {
    CodegenOptions Probe = C.Baseline.Codegen;
    if (!applyCodegenTokens(CodegenSpec, Probe, Err)) {
      std::fprintf(stderr, "%s: %s\n", Bench, Err.c_str());
      std::exit(2);
    }
    C.Baseline.Codegen = Probe;
    for (BuildConfig &BC : Configs)
      applyCodegenTokens(CodegenSpec, BC.Codegen, Err); // Validated above.
  }
  std::vector<CompilerStyle> Styles;
  if (!StyleSpec.empty() &&
      !parseCompilerStyleList(StyleSpec, Styles, Err)) {
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

/// Parses the shared scheduler/pipeline flags (see the file comment for
/// the roster; both `--flag V` and `--flag=V` spellings). Numeric flags
/// go through parseUnsignedFlag, `--baseline-opt`/`--codegen`/
/// `--compiler-style` through the BuildConfig parsers (exit 2 on
/// garbage); unrecognized arguments are ignored. Benches with a
/// build-config axis pass \p BaselineAxis to receive the `--baseline-opt`
/// comma list as BuildConfigs, and \p StyleAxis to receive a multi-entry
/// `--compiler-style` list.
inline EvalScheduler::Config
parseSchedulerArgs(int Argc, char **Argv,
                   std::vector<BuildConfig> *BaselineAxis = nullptr,
                   std::vector<CompilerStyle> *StyleAxis = nullptr) {
  EvalScheduler::Config C;
  const char *Bench = Argc > 0 ? Argv[0] : "bench";
  std::string BaselineSpec, CodegenSpec, StyleSpec;
  applyBenchFlags(Argc, Argv, schedulerFlagSpecs(C, Bench, BaselineSpec,
                                                 CodegenSpec, StyleSpec));
  // The scheduler reads --shards 0 as 1 and aborts on an index outside
  // the split; at the command line that is a usage error.
  if (C.ShardIdx >= std::max(C.Shards, 1u)) {
    std::fprintf(stderr,
                 "%s: --shard-index %u out of range for --shards %u "
                 "(expected 0..%u)\n",
                 Bench, C.ShardIdx, C.Shards, std::max(C.Shards, 1u) - 1);
    std::exit(2);
  }
  resolveBaselineFlags(C, Bench, BaselineSpec, CodegenSpec, StyleSpec,
                       BaselineAxis, StyleAxis);
  return C;
}

/// Value of `--json PATH` / `--json=PATH`, or empty when absent. Benches
/// that support it write their machine-readable results (the committed
/// BENCH_*.json perf trajectory) there in addition to the human table.
inline std::string parseJsonPath(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (const char *V = flagValue(Argc, Argv, I, "--json"))
      return V;
  return {};
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

/// Parses `--tools A,B,...` and validates every name against the DiffTool
/// registry *before* the caller spawns scheduler threads (createDiffTool
/// aborts on unknown names — mid-matrix that would kill a half-finished
/// run). Matching is case-insensitive against the registered spelling
/// (`--tools safe,safe-oop` resolves to SAFE + safe-oop); every name the
/// caller sees — the returned list, and the names echoed in diagnostics —
/// is the canonical registry spelling, never the user's casing. Repeated
/// names (`--tools safe,SAFE`) are deduplicated to the first occurrence
/// (with a stderr note) instead of running the tool twice. On an unknown
/// name, prints a usage message listing registeredToolNames() and exits 2.
/// Returns \p Default when the flag is absent.
inline std::vector<std::string>
parseToolNames(int Argc, char **Argv, const char *Bench,
               std::vector<std::string> Default = {}) {
  std::string Spec;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--tools=", 0) == 0)
      Spec = Arg.substr(8);
    else if (Arg == "--tools" && I + 1 < Argc)
      Spec = Argv[++I];
  }
  if (Spec.empty())
    return Default;

  auto Lower = [](std::string S) {
    for (char &C : S)
      C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    return S;
  };
  std::vector<std::string> Known = registeredToolNames();
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Name = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() + 1 : Comma + 1;
    if (Name.empty())
      continue;
    const std::string *Match = nullptr;
    for (const std::string &K : Known)
      if (Lower(K) == Lower(Name)) {
        Match = &K;
        break;
      }
    if (!Match) {
      std::fprintf(stderr,
                   "%s: unknown diffing tool '%s' in --tools\n"
                   "usage: --tools NAME[,NAME...] with registered tools:",
                   Bench, Name.c_str());
      for (const std::string &K : Known)
        std::fprintf(stderr, " %s", K.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    // Dedupe against the canonical spelling: `--tools safe,SAFE` must run
    // SAFE once, not twice (a duplicate would double its matrix rows and
    // its (cell x tool) tasks).
    bool Seen = false;
    for (const std::string &Existing : Out)
      if (Existing == *Match) {
        Seen = true;
        break;
      }
    if (Seen) {
      std::fprintf(stderr, "%s: duplicate tool '%s' in --tools ignored\n",
                   Bench, Match->c_str());
      continue;
    }
    Out.push_back(*Match);
  }
  if (Out.empty()) {
    std::fprintf(stderr, "%s: --tools requires at least one tool name\n",
                 Bench);
    std::exit(2);
  }
  return Out;
}

/// True if the boolean flag \p Flag appears in the argument list.
inline bool hasBenchFlag(int Argc, char **Argv, const char *Flag) {
  for (int I = 1; I < Argc; ++I)
    if (std::string(Argv[I]) == Flag)
      return true;
  return false;
}

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

/// Scheduler diagnostics go to stderr so stdout stays byte-identical
/// across thread counts, shard decompositions and cache settings.
inline void reportScheduler(const EvalScheduler &S, const EvalRunStats &R) {
  std::fprintf(stderr,
               "[scheduler] threads=%u seed=0x%llx shard=%u/%u cells=%zu "
               "failures=%zu tool-failures=%zu\n",
               S.threadCount(),
               static_cast<unsigned long long>(S.baseSeed()), S.shardIndex(),
               S.shardCount(), R.Cells, R.Failures, R.ToolFailures);
  std::fprintf(stderr,
               "[cache] %s hits=%llu misses=%llu evictions=%llu "
               "recompile-bytes-saved=%llu\n",
               S.pipeline().store().enabled() ? "on" : "off",
               static_cast<unsigned long long>(R.CacheHits),
               static_cast<unsigned long long>(R.CacheMisses),
               static_cast<unsigned long long>(R.CacheEvictions),
               static_cast<unsigned long long>(R.CacheBytesSaved));
  if (S.pipeline().store().diskCache())
    std::fprintf(stderr,
                 "[disk] disk-hits=%llu disk-misses=%llu "
                 "disk-evictions=%llu disk-corrupt=%llu\n",
                 static_cast<unsigned long long>(R.DiskHits),
                 static_cast<unsigned long long>(R.DiskMisses),
                 static_cast<unsigned long long>(R.DiskEvictions),
                 static_cast<unsigned long long>(R.DiskCorrupt));
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
