//===- harness/DifferentialFuzzer.cpp - Obfuscation correctness fuzzer ------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/DifferentialFuzzer.h"

#include "harness/EvalScheduler.h"
#include "ir/Module.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iostream>

using namespace khaos;

const char *khaos::divergenceKindName(DivergenceKind K) {
  switch (K) {
  case DivergenceKind::None:
    return "none";
  case DivergenceKind::CompileError:
    return "compile";
  case DivergenceKind::Trap:
    return "trap";
  case DivergenceKind::Timeout:
    return "timeout";
  case DivergenceKind::ExitValue:
    return "exit-value";
  case DivergenceKind::StdoutBytes:
    return "stdout";
  case DivergenceKind::EngineMismatch:
    return "engine-mismatch";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Spec sampling
//===----------------------------------------------------------------------===//

ProgramSpec DifferentialFuzzer::sampleSpec(uint64_t BaseSeed,
                                           unsigned Index) {
  RNG R = RNG::fromName("fuzz-case-" + std::to_string(Index), BaseSeed);
  ProgramSpec S;
  S.Name = formatStr("fuzz-%llx-%05u", (unsigned long long)BaseSeed, Index);
  S.Seed = R.next();
  S.NumFunctions = 3 + static_cast<unsigned>(R.nextBelow(30)); // 3..32
  S.FloatRatio = 0.15 * static_cast<double>(R.nextBelow(5));   // 0..0.6
  S.RecursionRatio = 0.12 * static_cast<double>(R.nextBelow(4));
  S.UseIndirectCalls = R.nextBool(0.6);
  S.UseExceptions = R.nextBool(0.4);
  S.UseSetjmp = R.nextBool(0.3);
  S.MaxLoopDepth = static_cast<unsigned>(R.nextBelow(5)); // 0..4
  // Couple the hot knobs: deep loop nests multiply the dynamic cost, so
  // they get fewer main iterations (and at depth 4, fewer functions) —
  // otherwise a noticeable fraction of cases burns the whole VM step
  // budget in the baseline and probes nothing.
  S.MainIterations =
      1 + static_cast<unsigned>(R.nextBelow(S.MaxLoopDepth >= 3 ? 3 : 8));
  if (S.MaxLoopDepth == 4)
    S.NumFunctions = 3 + S.NumFunctions % 14;
  // Adversarial idioms (appended draws: changes fuzz case shapes only,
  // never the fixed eval workloads).
  S.StringRatio = R.nextBool(0.35) ? 0.3 * (1 + R.nextBelow(3)) : 0.0;
  S.UseSwitchDispatch = R.nextBool(0.35);
  S.UseGotos = R.nextBool(0.35);
  return S;
}

//===----------------------------------------------------------------------===//
// Verdicts
//===----------------------------------------------------------------------===//

namespace {

/// The step budget the obfuscated twin of a baseline run gets.
uint64_t obfStepBudget(const ExecResult &Ref) {
  return std::max(Ref.Steps * DifferentialFuzzer::ObfStepsMultiplier,
                  DifferentialFuzzer::MinObfSteps);
}

/// Cross-VM oracle: full observational comparison of the two engines'
/// runs of the same module. Empty string = identical (ExecResult's
/// operator==); otherwise a one-liner naming the first differing field
/// with both values (\p A ran under \p AEngine, \p B under the other
/// engine).
std::string engineMismatchDetail(const ExecResult &A, const ExecResult &B,
                                 VMEngine AEngine) {
  if (A == B)
    return {};
  const char *AN = vmEngineName(AEngine);
  const char *BN = vmEngineName(AEngine == VMEngine::Precompiled
                                    ? VMEngine::Reference
                                    : VMEngine::Precompiled);
  if (A.Ok != B.Ok)
    return formatStr("engines disagree: %s %s but %s %s (%s)", AN,
                     A.Ok ? "ok" : "trapped", BN, B.Ok ? "ok" : "trapped",
                     (A.Ok ? B.Error : A.Error).c_str());
  if (A.Error != B.Error)
    return formatStr("engines disagree on trap: %s '%s' != %s '%s'", AN,
                     A.Error.c_str(), BN, B.Error.c_str());
  if (A.FaultFunction != B.FaultFunction || A.FaultBlock != B.FaultBlock)
    return formatStr("engines disagree on fault context: %s %s:%s != %s "
                     "%s:%s",
                     AN, A.FaultFunction.c_str(), A.FaultBlock.c_str(), BN,
                     B.FaultFunction.c_str(), B.FaultBlock.c_str());
  if (A.ExitValue != B.ExitValue)
    return formatStr("engines disagree on exit: %s %lld != %s %lld", AN,
                     (long long)A.ExitValue, BN, (long long)B.ExitValue);
  if (A.Stdout != B.Stdout)
    return formatStr("engines disagree on stdout: %s %zu bytes != %s %zu "
                     "bytes",
                     AN, A.Stdout.size(), BN, B.Stdout.size());
  if (A.Steps != B.Steps)
    return formatStr("engines disagree on steps: %s %llu != %s %llu", AN,
                     (unsigned long long)A.Steps, BN,
                     (unsigned long long)B.Steps);
  if (A.Cost != B.Cost)
    return formatStr("engines disagree on cost: %s %llu != %s %llu", AN,
                     (unsigned long long)A.Cost, BN,
                     (unsigned long long)B.Cost);
  return formatStr("engines disagree: %s and %s results differ", AN, BN);
}

/// Runs \p M under \p Opts' engine; with \p CrossVM also under the other
/// engine, setting \p MismatchOut to the disagreement detail (empty =
/// engines agree). Returns the primary engine's result either way.
ExecResult runChecked(const Module &M, ExecOptions Opts, bool CrossVM,
                      std::string *MismatchOut) {
  if (MismatchOut)
    MismatchOut->clear();
  ExecResult Primary = runModule(M, Opts);
  if (CrossVM) {
    ExecOptions Other = Opts;
    Other.Engine = Opts.Engine == VMEngine::Precompiled
                       ? VMEngine::Reference
                       : VMEngine::Precompiled;
    std::string Detail =
        engineMismatchDetail(Primary, runModule(M, Other), Opts.Engine);
    if (!Detail.empty() && MismatchOut)
      *MismatchOut = std::move(Detail);
  }
  return Primary;
}

/// Classifies an obfuscated run against the baseline's reference run.
/// \p ObfMaxSteps is the budget Got ran under (to tell a timeout apart
/// from a genuine trap).
DivergenceKind classifyRuns(const ExecResult &Ref, const ExecResult &Got,
                            uint64_t ObfMaxSteps, std::string *DetailOut) {
  if (!Got.Ok) {
    if (Got.Steps >= ObfMaxSteps) {
      if (DetailOut)
        *DetailOut = formatStr(
            "obfuscated run exceeded %llu steps (baseline took %llu)",
            (unsigned long long)ObfMaxSteps, (unsigned long long)Ref.Steps);
      return DivergenceKind::Timeout;
    }
    if (DetailOut)
      *DetailOut = "obfuscated run failed: " + Got.Error;
    return DivergenceKind::Trap;
  }
  if (Got.ExitValue != Ref.ExitValue) {
    if (DetailOut)
      *DetailOut = formatStr("exit %lld != baseline %lld",
                             (long long)Got.ExitValue,
                             (long long)Ref.ExitValue);
    return DivergenceKind::ExitValue;
  }
  if (Got.Stdout != Ref.Stdout) {
    size_t FirstDiff = 0;
    size_t Common = std::min(Got.Stdout.size(), Ref.Stdout.size());
    while (FirstDiff < Common && Got.Stdout[FirstDiff] == Ref.Stdout[FirstDiff])
      ++FirstDiff;
    if (DetailOut)
      *DetailOut = formatStr(
          "stdout %zu bytes != baseline %zu bytes (first diff at %zu)",
          Got.Stdout.size(), Ref.Stdout.size(), FirstDiff);
    return DivergenceKind::StdoutBytes;
  }
  return DivergenceKind::None;
}

} // namespace

/// A program's baseline under the fuzzer's termination policy.
struct DifferentialFuzzer::BaselineVerdict {
  bool Ok = false;
  std::string Error;
  std::string EngineMismatch; ///< Non-empty = engines disagreed.
  ExecResult Run;
};

/// One (program, mode, seed, step prefix) cell against its baseline.
struct DifferentialFuzzer::CellVerdict {
  uint64_t ObfSeed = 0;
  bool BaselineOk = true;
  DivergenceKind Kind = DivergenceKind::None;
  std::string Detail;
};

DifferentialFuzzer::BaselineVerdict
DifferentialFuzzer::baselineVerdict(EvalPipeline &Pipe,
                                    const Workload &W) const {
  BaselineVerdict B;
  auto Base = Pipe.baseline(W);
  if (!*Base) {
    B.Error = "baseline compile failed: " + Base->Error;
    return B;
  }
  ExecOptions RefOpts;
  RefOpts.MaxSteps = BaselineMaxSteps;
  RefOpts.Engine = Cfg.Engine;
  B.Run = runChecked(*Base->M, RefOpts, Cfg.CrossVM, &B.EngineMismatch);
  if (!B.EngineMismatch.empty())
    return B; // Every cell reports it as an engine-mismatch divergence.
  if (!B.Run.Ok) {
    B.Error = "baseline failed: " + B.Run.Error;
    return B;
  }
  B.Ok = true;
  return B;
}

DifferentialFuzzer::CellVerdict DifferentialFuzzer::cellVerdict(
    EvalPipeline &Pipe, const Workload &W, const BaselineVerdict &Base,
    ObfuscationMode Mode, uint64_t Seed, size_t Steps) const {
  CellVerdict Out;
  Out.ObfSeed = Seed;
  if (!Base.EngineMismatch.empty()) {
    // An engine disagreement on the baseline is the strongest possible
    // finding for the A/B oracle — report it even though the cell never
    // reaches the obfuscated twin.
    Out.Kind = DivergenceKind::EngineMismatch;
    Out.Detail = "baseline: " + Base.EngineMismatch;
    return Out;
  }
  if (!Base.Ok) {
    Out.BaselineOk = false;
    Out.Detail = Base.Error;
    return Out;
  }
  KhaosOptions Opts;
  Opts.Seed = Seed;
  Opts.Steps = Steps;
  Opts.ExtraPass = Cfg.ExtraPass;
  CompiledWorkload Obf = Pipe.obfuscate(W, Mode, Opts);
  if (!Obf) {
    Out.Kind = DivergenceKind::CompileError;
    Out.Detail = Obf.Error;
    return Out;
  }
  ExecOptions ObfOpts;
  ObfOpts.MaxSteps = obfStepBudget(Base.Run);
  ObfOpts.Engine = Cfg.Engine;
  std::string Mismatch;
  ExecResult Got = runChecked(*Obf.M, ObfOpts, Cfg.CrossVM, &Mismatch);
  if (!Mismatch.empty()) {
    Out.Kind = DivergenceKind::EngineMismatch;
    Out.Detail = "obfuscated: " + Mismatch;
    return Out;
  }
  Out.Kind = classifyRuns(Base.Run, Got, ObfOpts.MaxSteps, &Out.Detail);
  return Out;
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

namespace {

/// One top-level unit of generated MiniC source: a function definition
/// (droppable unless it is main) or a preamble line (global, blank).
struct SourceChunk {
  std::string Text;
  bool Droppable = false;
};

/// Splits generated MiniC into top-level chunks by brace depth. The
/// generator emits no brace characters inside string literals, so plain
/// per-line counting is exact for this grammar.
std::vector<SourceChunk> chunkMiniC(const std::string &Source) {
  std::vector<SourceChunk> Chunks;
  SourceChunk Cur;
  int Depth = 0;
  bool SawBrace = false;
  bool SawParen = false;
  size_t Pos = 0;
  while (Pos <= Source.size()) {
    size_t NL = Source.find('\n', Pos);
    std::string Line = Source.substr(
        Pos, NL == std::string::npos ? std::string::npos : NL - Pos + 1);
    Pos = NL == std::string::npos ? Source.size() + 1 : NL + 1;
    if (Line.empty())
      break;
    if (Cur.Text.empty()) {
      SawBrace = false;
      SawParen = Line.find('(') != std::string::npos;
    }
    Cur.Text += Line;
    for (char C : Line) {
      if (C == '{') {
        ++Depth;
        SawBrace = true;
      } else if (C == '}') {
        --Depth;
      }
    }
    if (Depth == 0) {
      // A function definition is a braced chunk with a parameter list;
      // main() stays, everything else is fair game for the dropper.
      Cur.Droppable = SawBrace && SawParen &&
                      Cur.Text.find("int main()") == std::string::npos;
      Chunks.push_back(std::move(Cur));
      Cur = SourceChunk();
    }
  }
  if (!Cur.Text.empty())
    Chunks.push_back(std::move(Cur));
  return Chunks;
}

std::string joinChunks(const std::vector<SourceChunk> &Chunks,
                       const std::vector<uint8_t> &Dropped) {
  std::string Out;
  for (size_t I = 0; I != Chunks.size(); ++I)
    if (!Dropped[I])
      Out += Chunks[I].Text;
  return Out;
}

/// Cap on divergence probes (compile+run pairs) spent per shrink.
constexpr unsigned MaxShrinkProbes = 400;

/// A fuzz program built from \p Source under \p Name.
Workload makeWorkload(const std::string &Name, std::string Source) {
  Workload W;
  W.Name = Name;
  W.Source = std::move(Source);
  return W;
}

/// Shrink and replay probe sources that are new to every probe, so their
/// pipeline retains no stage.
EvalPipeline::Config uncachedPipeline() {
  EvalPipeline::Config C;
  C.CacheEnabled = false;
  return C;
}

} // namespace

ShrinkResult DifferentialFuzzer::shrink(const ProgramSpec &Spec,
                                        ObfuscationMode Mode,
                                        uint64_t ObfSeed) const {
  ShrinkResult Res;
  Res.Spec = Spec;
  EvalPipeline Pipe(uncachedPipeline());

  // One budgeted probe of the full pipeline. A candidate that breaks the
  // baseline is rejected outright: the baseline must stay healthy.
  auto Diverges = [&](std::string Source, DivergenceKind &K,
                      std::string &Detail) {
    if (Res.Probes >= MaxShrinkProbes)
      return false;
    ++Res.Probes;
    const Workload W = makeWorkload(Spec.Name, std::move(Source));
    CellVerdict V = cellVerdict(Pipe, W, baselineVerdict(Pipe, W), Mode,
                                ObfSeed, SIZE_MAX);
    if (!V.BaselineOk || V.Kind == DivergenceKind::None)
      return false;
    K = V.Kind;
    Detail = std::move(V.Detail);
    return true;
  };
  auto SpecDiverges = [&](const ProgramSpec &S, DivergenceKind &K,
                          std::string &Detail) {
    return Diverges(generateMiniCProgram(S), K, Detail);
  };

  // Establish the starting state (and its kind/detail).
  {
    DivergenceKind K = DivergenceKind::None;
    std::string Detail;
    if (!SpecDiverges(Res.Spec, K, Detail)) {
      // The divergence does not reproduce standalone — report as-is so
      // the caller still gets a repro of the original spec.
      Res.Source = generateMiniCProgram(Res.Spec);
      return Res;
    }
    Res.Kind = K;
    Res.Detail = Detail;
  }

  // Phase 1: greedy spec-level reduction, fixed candidate order, repeated
  // until a full round accepts nothing. Every acceptance re-records the
  // (possibly different) divergence kind at the smaller spec.
  bool Changed = true;
  while (Changed && Res.Probes < MaxShrinkProbes) {
    Changed = false;
    auto Try = [&](ProgramSpec Candidate) {
      DivergenceKind K = DivergenceKind::None;
      std::string Detail;
      if (!SpecDiverges(Candidate, K, Detail))
        return false;
      Res.Spec = std::move(Candidate);
      Res.Kind = K;
      Res.Detail = std::move(Detail);
      ++Res.SpecReductions;
      Changed = true;
      return true;
    };

    // Function count: halve toward the generator's floor of 3, falling
    // back to single steps when the big jump overshoots the bug.
    while (Res.Spec.NumFunctions > 3 && Res.Probes < MaxShrinkProbes) {
      ProgramSpec Half = Res.Spec;
      Half.NumFunctions = std::max(3u, Half.NumFunctions / 2);
      if (Half.NumFunctions != Res.Spec.NumFunctions &&
          Try(std::move(Half)))
        continue;
      ProgramSpec Dec = Res.Spec;
      --Dec.NumFunctions;
      if (!Try(std::move(Dec)))
        break;
    }
    while (Res.Spec.MainIterations > 1 && Res.Probes < MaxShrinkProbes) {
      ProgramSpec Half = Res.Spec;
      Half.MainIterations = std::max(1u, Half.MainIterations / 2);
      if (Half.MainIterations != Res.Spec.MainIterations &&
          Try(std::move(Half)))
        continue;
      ProgramSpec Dec = Res.Spec;
      --Dec.MainIterations;
      if (!Try(std::move(Dec)))
        break;
    }
    while (Res.Spec.MaxLoopDepth > 0 && Res.Probes < MaxShrinkProbes) {
      ProgramSpec C = Res.Spec;
      --C.MaxLoopDepth;
      if (!Try(std::move(C)))
        break;
    }
    for (int Feature = 0; Feature != 8 && Res.Probes < MaxShrinkProbes;
         ++Feature) {
      ProgramSpec C = Res.Spec;
      switch (Feature) {
      case 0:
        if (!C.UseExceptions)
          continue;
        C.UseExceptions = false;
        break;
      case 1:
        if (!C.UseSetjmp)
          continue;
        C.UseSetjmp = false;
        break;
      case 2:
        if (!C.UseIndirectCalls)
          continue;
        C.UseIndirectCalls = false;
        break;
      case 3:
        if (C.FloatRatio == 0.0)
          continue;
        C.FloatRatio = 0.0;
        break;
      case 4:
        if (C.StringRatio == 0.0)
          continue;
        C.StringRatio = 0.0;
        break;
      case 5:
        if (!C.UseSwitchDispatch)
          continue;
        C.UseSwitchDispatch = false;
        break;
      case 6:
        if (!C.UseGotos)
          continue;
        C.UseGotos = false;
        break;
      default:
        if (C.RecursionRatio == 0.0)
          continue;
        C.RecursionRatio = 0.0;
        break;
      }
      Try(std::move(C));
    }
  }

  // Phase 2: greedy function dropping on the minimized source. Dropping a
  // function that is still referenced fails to compile, which the probe
  // rejects (the baseline must stay healthy) — so this is safely greedy.
  Res.Source = generateMiniCProgram(Res.Spec);
  {
    std::vector<SourceChunk> Chunks = chunkMiniC(Res.Source);
    std::vector<uint8_t> Dropped(Chunks.size(), 0);
    bool DropChanged = true;
    while (DropChanged && Res.Probes < MaxShrinkProbes) {
      DropChanged = false;
      // Reverse order: later functions are callers of earlier ones, so
      // they become unreferenced (and droppable) first.
      for (size_t I = Chunks.size(); I-- > 0;) {
        if (Dropped[I] || !Chunks[I].Droppable ||
            Res.Probes >= MaxShrinkProbes)
          continue;
        Dropped[I] = 1;
        DivergenceKind K = DivergenceKind::None;
        std::string Detail;
        if (Diverges(joinChunks(Chunks, Dropped), K, Detail)) {
          Res.Kind = K;
          Res.Detail = std::move(Detail);
          ++Res.DroppedFunctions;
          DropChanged = true;
        } else {
          Dropped[I] = 0;
        }
      }
    }
    Res.Source = joinChunks(Chunks, Dropped);
  }

  // Phase 3: pass bisection over the driver's named step sequence. The
  // full prefix diverges (just re-established above) and the empty prefix
  // runs the unobfuscated module, which matches the baseline; bisect the
  // boundary and name the step that flips behaviour.
  {
    KhaosOptions Opts;
    Opts.ExtraPass = Cfg.ExtraPass;
    std::vector<std::string> Steps = obfuscationStepNames(Mode, Opts);
    Res.StepCount = Steps.size();
    const Workload W = makeWorkload(Spec.Name, Res.Source);
    const BaselineVerdict Base = baselineVerdict(Pipe, W);
    auto PrefixDiverges = [&](size_t K) {
      // The bisection runs outside the probe budget: it is O(log steps)
      // and a repro without a guilty step is not actionable.
      ++Res.Probes;
      CellVerdict V = cellVerdict(Pipe, W, Base, Mode, ObfSeed, K);
      return V.BaselineOk && V.Kind != DivergenceKind::None;
    };
    if (!Steps.empty() && PrefixDiverges(0)) {
      // The unobfuscated module already disagrees with the baseline —
      // a frontend/optimizer bug, not an obfuscation pass.
      Res.GuiltyStep = "(pre-obfuscation)";
    } else if (!Steps.empty()) {
      size_t Lo = 0, Hi = Steps.size(); // Lo agrees, Hi diverges.
      while (Hi - Lo > 1) {
        size_t Mid = Lo + (Hi - Lo) / 2;
        if (PrefixDiverges(Mid))
          Hi = Mid;
        else
          Lo = Mid;
      }
      Res.GuiltyStep = Steps[Hi - 1];
      Res.GuiltyStepIndex = Hi;
    }
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// Repro files
//===----------------------------------------------------------------------===//

static const char ReproMagic[] = "# khaos-fuzz repro v1";
static const char ReproSourceMarker[] = "# --- MiniC source ---";

std::string DifferentialFuzzer::formatRepro(const FuzzDivergence &D) {
  const ShrinkResult &S = D.Shrunk;
  std::string Out;
  Out += ReproMagic;
  Out += '\n';
  Out += formatStr("# name: %s\n", S.Spec.Name.c_str());
  Out += formatStr("# mode: %s\n", obfuscationModeName(D.Mode));
  Out += formatStr("# obf-seed: 0x%llx\n", (unsigned long long)D.ObfSeed);
  // Which engine produced the verdict (informational: --replay takes the
  // engine from its own --vm flag, so old repros replay on either).
  Out += formatStr("# engine: %s%s\n", vmEngineName(D.Engine),
                   D.CrossVM ? " (cross-vm)" : "");
  Out += formatStr("# kind: %s\n", divergenceKindName(S.Kind));
  if (!S.GuiltyStep.empty())
    Out += formatStr("# guilty-step: %s (step %zu of %zu)\n",
                     S.GuiltyStep.c_str(), S.GuiltyStepIndex, S.StepCount);
  Out += formatStr("# spec: nfun=%u fp=%.2f rec=%.2f ind=%d eh=%d sj=%d "
                   "loop=%u iters=%u str=%.2f sw=%d goto=%d gseed=0x%llx\n",
                   S.Spec.NumFunctions, S.Spec.FloatRatio,
                   S.Spec.RecursionRatio, S.Spec.UseIndirectCalls ? 1 : 0,
                   S.Spec.UseExceptions ? 1 : 0, S.Spec.UseSetjmp ? 1 : 0,
                   S.Spec.MaxLoopDepth, S.Spec.MainIterations,
                   S.Spec.StringRatio, S.Spec.UseSwitchDispatch ? 1 : 0,
                   S.Spec.UseGotos ? 1 : 0,
                   (unsigned long long)S.Spec.Seed);
  if (!S.Detail.empty())
    Out += "# detail: " + S.Detail + "\n";
  Out += formatStr("# shrink: spec-reductions=%u dropped-funcs=%u probes=%u\n",
                   S.SpecReductions, S.DroppedFunctions, S.Probes);
  Out += "# replay: khaos-fuzz --replay <this file>\n";
  Out += ReproSourceMarker;
  Out += '\n';
  Out += S.Source;
  if (Out.back() != '\n')
    Out += '\n';
  return Out;
}

/// Parses a repro's obf-seed: decimal or 0x-hex digits and nothing else
/// (no sign, no octal-looking leading zero, no trailing text).
static bool parseObfSeed(const std::string &Text, uint64_t &Out) {
  const bool Hex = startsWith(Text, "0x");
  const char *First = Text.data() + (Hex ? 2 : 0);
  const char *Last = Text.data() + Text.size();
  if (!Hex && Last - First > 1 && *First == '0')
    return false;
  auto [End, EC] = std::from_chars(First, Last, Out, Hex ? 16 : 10);
  return EC == std::errc() && End == Last;
}

ReplayResult
DifferentialFuzzer::replayRepro(const std::string &ReproText) const {
  ReplayResult Out;
  auto Malformed = [&Out](std::string Why) {
    Out.State = ReplayResult::Status::Malformed;
    Out.Message = std::move(Why);
    return Out;
  };
  std::string Name, Source;
  ObfuscationMode Mode = ObfuscationMode::None;
  bool HaveMode = false, HaveSeed = false;
  uint64_t ObfSeed = 0;
  bool InSource = false;
  size_t Pos = 0;
  bool First = true;
  while (Pos <= ReproText.size()) {
    size_t NL = ReproText.find('\n', Pos);
    std::string Line = ReproText.substr(
        Pos, NL == std::string::npos ? std::string::npos : NL - Pos);
    Pos = NL == std::string::npos ? ReproText.size() + 1 : NL + 1;
    if (First) {
      if (Line != ReproMagic)
        return Malformed("not a khaos-fuzz repro (bad magic line)");
      First = false;
      continue;
    }
    if (InSource) {
      Source += Line;
      Source += '\n';
      continue;
    }
    if (Line == ReproSourceMarker) {
      InSource = true;
      continue;
    }
    auto Field = [&Line](const char *Key) -> const char * {
      std::string Prefix = std::string("# ") + Key + ": ";
      return startsWith(Line, Prefix) ? Line.c_str() + Prefix.size()
                                      : nullptr;
    };
    if (const char *V = Field("name"))
      Name = V;
    else if (const char *V2 = Field("mode"))
      HaveMode = parseObfuscationModeName(V2, Mode);
    else if (const char *V3 = Field("obf-seed")) {
      if (!parseObfSeed(V3, ObfSeed))
        return Malformed(formatStr("malformed repro: bad obf-seed '%s' "
                                   "(want decimal or 0x-hex)",
                                   V3));
      HaveSeed = true;
    }
  }
  if (Name.empty() || !HaveMode || !HaveSeed || Source.empty())
    return Malformed("malformed repro: missing name, mode, obf-seed or "
                     "source");
  EvalPipeline Pipe(uncachedPipeline());
  const Workload W = makeWorkload(Name, std::move(Source));
  CellVerdict V = cellVerdict(Pipe, W, baselineVerdict(Pipe, W), Mode,
                              ObfSeed, SIZE_MAX);
  if (!V.BaselineOk) {
    Out.State = ReplayResult::Status::BaselineFailed;
    Out.Message = "repro " + V.Detail;
    return Out;
  }
  Out.Kind = V.Kind;
  Out.Message = std::move(V.Detail);
  return Out;
}

//===----------------------------------------------------------------------===//
// The fuzzing loop
//===----------------------------------------------------------------------===//

namespace {

std::string sanitizeFileToken(std::string S) {
  for (char &C : S)
    if (C == '.' || C == '/' || C == ' ')
      C = '_';
  return S;
}

} // namespace

FuzzReport DifferentialFuzzer::run() {
  FuzzReport Report;
  std::ostream &OS = Cfg.Out ? *Cfg.Out : std::cout;
  if (!Cfg.ReproDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Cfg.ReproDir, EC);
    if (EC)
      std::cerr << "khaos-fuzz: cannot create repro dir '" << Cfg.ReproDir
                << "': " << EC.message() << "\n";
  }
  std::vector<ObfuscationMode> Modes =
      Cfg.Modes.empty() ? allObfuscationModes() : Cfg.Modes;
  const unsigned Batch = Config::CasesPerBatch;

  for (unsigned Start = 0; Start < Cfg.Budget; Start += Batch) {
    const unsigned End = std::min(Cfg.Budget, Start + Batch);

    // Materialize the batch's programs (the spec-mutator is pure).
    std::vector<ProgramSpec> Specs;
    std::vector<Workload> Workloads;
    for (unsigned I = Start; I != End; ++I) {
      Specs.push_back(sampleSpec(Cfg.Seed, I));
      Workloads.push_back(makeWorkload(Specs.back().Name,
                                       generateMiniCProgram(Specs.back())));
    }

    // Fan the (case × mode) matrix over the scheduler pool. A fresh
    // scheduler per batch keeps the ArtifactStore bounded; verdicts land
    // at their matrix slot, so output order is thread-independent.
    EvalScheduler::Config SchedCfg;
    SchedCfg.Threads = Cfg.Threads;
    SchedCfg.Seed = Cfg.Seed;
    SchedCfg.StoreMaxBytes = Cfg.StoreMaxBytes;
    EvalScheduler Sched(SchedCfg);
    EvalPipeline &Pipe = Sched.pipeline();

    // Baseline pre-pass (one cell per program on the pool). A spec whose
    // baseline is hotter than the step cap probes nothing, so it is
    // reported as a baseline error instead of burning wall-clock in every
    // mode.
    std::vector<BaselineVerdict> Baselines(Workloads.size());
    const std::vector<ObfuscationMode> NoneMode = {ObfuscationMode::None};
    Sched.forEachCell(Workloads, NoneMode, [&](const EvalCell &Cell) {
      Baselines[Cell.WorkloadIdx] = baselineVerdict(Pipe, *Cell.W);
    });

    std::vector<CellVerdict> Cells(Workloads.size() * Modes.size());
    Sched.forEachCell(Workloads, Modes, [&](const EvalCell &Cell) {
      Cells[Cell.FlatIdx] =
          cellVerdict(Pipe, *Cell.W, Baselines[Cell.WorkloadIdx], Cell.Mode,
                      Cell.Seed, SIZE_MAX);
    });

    // Sequential, matrix-ordered reporting + shrinking: this is what
    // makes the verdict stream and repro files bit-identical at any
    // thread count.
    for (size_t WI = 0; WI != Workloads.size(); ++WI) {
      const unsigned CaseIdx = Start + static_cast<unsigned>(WI);
      const ProgramSpec &Spec = Specs[WI];
      unsigned OkModes = 0, DivModes = 0, BaseErrs = 0;
      for (size_t MI = 0; MI != Modes.size(); ++MI) {
        const CellVerdict &Cell = Cells[WI * Modes.size() + MI];
        if (!Cell.BaselineOk)
          ++BaseErrs;
        else if (Cell.Kind == DivergenceKind::None)
          ++OkModes;
        else
          ++DivModes;
      }
      Report.Cases += 1;
      Report.Cells += static_cast<unsigned>(Modes.size());
      Report.Passes += OkModes;
      Report.BaselineErrors += BaseErrs;

      if (Cfg.Verbose || DivModes != 0 || BaseErrs != 0)
        OS << formatStr(
            "case %06u %s nfun=%u fp=%.2f rec=%.2f ind=%d eh=%d sj=%d "
            "loop=%u iters=%u str=%.2f sw=%d goto=%d : ok=%u div=%u "
            "base-err=%u\n",
            CaseIdx, Spec.Name.c_str(), Spec.NumFunctions, Spec.FloatRatio,
            Spec.RecursionRatio, Spec.UseIndirectCalls ? 1 : 0,
            Spec.UseExceptions ? 1 : 0, Spec.UseSetjmp ? 1 : 0,
            Spec.MaxLoopDepth, Spec.MainIterations, Spec.StringRatio,
            Spec.UseSwitchDispatch ? 1 : 0, Spec.UseGotos ? 1 : 0, OkModes,
            DivModes, BaseErrs);

      for (size_t MI = 0; MI != Modes.size(); ++MI) {
        const CellVerdict &Cell = Cells[WI * Modes.size() + MI];
        if (!Cell.BaselineOk) {
          OS << formatStr("baseline-error %06u %s : %s\n", CaseIdx,
                          Spec.Name.c_str(), Cell.Detail.c_str());
          break; // One line per case: every mode shares the baseline.
        }
        if (Cell.Kind == DivergenceKind::None)
          continue;

        FuzzDivergence D;
        D.CaseIndex = CaseIdx;
        D.Spec = Spec;
        D.Mode = Modes[MI];
        D.ObfSeed = Cell.ObfSeed;
        D.Engine = Cfg.Engine;
        D.CrossVM = Cfg.CrossVM;
        D.Kind = Cell.Kind;
        D.Detail = Cell.Detail;
        OS << formatStr("divergence %06u %s mode=%s obf-seed=0x%llx "
                        "kind=%s : %s\n",
                        CaseIdx, Spec.Name.c_str(),
                        obfuscationModeName(D.Mode),
                        (unsigned long long)D.ObfSeed,
                        divergenceKindName(D.Kind), D.Detail.c_str());

        if (Cfg.Shrink) {
          D.Shrunk = shrink(Spec, D.Mode, D.ObfSeed);
          if (D.Shrunk.Kind == DivergenceKind::None) {
            // The divergence did not reproduce in the shrinker's
            // standalone probe; keep the matrix verdict on the repro
            // rather than emitting a contradictory "kind: none" header.
            D.Shrunk.Kind = D.Kind;
            D.Shrunk.Detail = D.Detail;
          }
          OS << formatStr(
              "shrink %06u mode=%s nfun %u->%u iters %u->%u "
              "spec-reductions=%u dropped-funcs=%u probes=%u kind=%s\n",
              CaseIdx, obfuscationModeName(D.Mode), Spec.NumFunctions,
              D.Shrunk.Spec.NumFunctions, Spec.MainIterations,
              D.Shrunk.Spec.MainIterations, D.Shrunk.SpecReductions,
              D.Shrunk.DroppedFunctions, D.Shrunk.Probes,
              divergenceKindName(D.Shrunk.Kind));
          if (!D.Shrunk.GuiltyStep.empty())
            OS << formatStr("bisect %06u mode=%s guilty-step=%s (%zu/%zu)\n",
                            CaseIdx, obfuscationModeName(D.Mode),
                            D.Shrunk.GuiltyStep.c_str(),
                            D.Shrunk.GuiltyStepIndex, D.Shrunk.StepCount);
        } else {
          D.Shrunk.Spec = Spec;
          D.Shrunk.Source = Workloads[WI].Source;
          D.Shrunk.Kind = D.Kind;
          D.Shrunk.Detail = D.Detail;
        }

        D.ReproText = formatRepro(D);
        D.ReproName =
            formatStr("repro-%s-%s.minic", Spec.Name.c_str(),
                      sanitizeFileToken(obfuscationModeName(D.Mode)).c_str());
        OS << formatStr("repro %s bytes=%zu\n", D.ReproName.c_str(),
                        D.ReproText.size());
        if (!Cfg.ReproDir.empty()) {
          std::ofstream File(Cfg.ReproDir + "/" + D.ReproName,
                             std::ios::binary | std::ios::trunc);
          if (File)
            File << D.ReproText;
          else
            std::cerr << "khaos-fuzz: cannot write repro to '"
                      << Cfg.ReproDir << "/" << D.ReproName << "'\n";
        }
        Report.Divergences.push_back(std::move(D));
      }
    }
  }

  OS << formatStr("summary seed=0x%llx budget=%u modes=%zu cells=%u "
                  "pass=%u divergences=%zu baseline-errors=%u engine=%s%s\n",
                  (unsigned long long)Cfg.Seed, Cfg.Budget, Modes.size(),
                  Report.Cells, Report.Passes, Report.Divergences.size(),
                  Report.BaselineErrors, vmEngineName(Cfg.Engine),
                  Cfg.CrossVM ? " cross-vm" : "");
  return Report;
}
