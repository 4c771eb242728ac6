//===- perfbench/Workloads.cpp - The benchmark's three workloads ----------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "codegen/ISel.h"
#include "diffing/BinaryFeatures.h"
#include "diffing/DiffTool.h"
#include "diffing/Metrics.h"
#include "frontend/IRGen.h"
#include "harness/DifferentialFuzzer.h"
#include "harness/EvalScheduler.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "transform/Cloning.h"
#include "vm/Bytecode.h"
#include "vm/PrecompiledInterpreter.h"
#include "workloads/Suites.h"
#include "workloads/SyntheticProgram.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

using namespace khaos;
using namespace perfbench;

void perfbench::parallelFor(size_t N, unsigned Threads,
                            const std::function<void(size_t)> &Fn) {
  unsigned Pool = static_cast<unsigned>(std::min<size_t>(Threads, N));
  if (Pool <= 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Pool; ++T)
    Workers.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Fn(I);
    });
  for (std::thread &W : Workers)
    W.join();
}

namespace {

const std::vector<std::string> LightTools = {"BinDiff", "VulSeeker",
                                             "Asm2Vec", "SAFE"};
const std::vector<std::string> HeavyTools = {"DeepBinDiff"};

/// The fig6/fig7 overhead modes.
const std::vector<ObfuscationMode> OverheadModes = {
    ObfuscationMode::Fission, ObfuscationMode::Fusion,
    ObfuscationMode::FuFiSep, ObfuscationMode::FuFiOri,
    ObfuscationMode::FuFiAll, ObfuscationMode::Sub,
    ObfuscationMode::Bog,     ObfuscationMode::Fla,
    ObfuscationMode::Fla10};

std::string fmtDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

/// A named stream of the workload seed: one value per input the seed picks.
uint64_t streamSeed(uint64_t Seed, const std::string &Stream) {
  return RNG::fromName(Stream, Seed).next();
}

uint64_t irInsts(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    N += F->instructionCount();
  return N;
}

/// \p Pool sorted by source size, the order stratifiedDraw() expects.
std::vector<Workload> bySize(std::vector<Workload> Pool) {
  std::stable_sort(Pool.begin(), Pool.end(),
                   [](const Workload &A, const Workload &B) {
                     return A.Source.size() < B.Source.size();
                   });
  return Pool;
}

/// Round \p Round's K workloads from \p SortedPool, one from each of K
/// equal strata, so every round has the same spread of program sizes. \p R
/// (seeded the same way every round) picks each stratum's first member;
/// later rounds walk on through the stratum, so the rounds of a run cover
/// every stratum nearly evenly whatever the seed.
std::vector<Workload> stratifiedDraw(const std::vector<Workload> &SortedPool,
                                     size_t K, RNG &R, unsigned Round) {
  K = std::min(K, SortedPool.size());
  std::vector<Workload> Out;
  for (size_t I = 0; I != K; ++I) {
    size_t Lo = I * SortedPool.size() / K;
    size_t N = (I + 1) * SortedPool.size() / K - Lo;
    Out.push_back(SortedPool[Lo + (R.nextBelow(N) + Round) % N]);
  }
  return Out;
}

std::vector<Workload> concat(std::vector<Workload> A,
                             std::vector<Workload> B) {
  for (Workload &W : B)
    A.push_back(std::move(W));
  return A;
}

//===----------------------------------------------------------------------===//
// Layer entry points, each called inside its span. This is the pipeline's
// composition (EvalPipeline::baseline / fissionStage / obfuscate /
// baselineImage / obfuscatedImage / baselineRun) without the store.
//===----------------------------------------------------------------------===//

struct Layers {
  Tracer *T;
  LayerStats &S;
  int64_t Cell = -1;

  std::unique_ptr<Module> compile(const Workload &W, Context &Ctx,
                                  std::string &Error) {
    S.CompileCalls += 1;
    return traced(T, "frontend.compile", Cell, [&] {
      return compileMiniC(W.Source, Ctx, W.Name, Error);
    });
  }

  BinaryImage lower(const Module &M, const CodegenOptions &Opts = {}) {
    BinaryImage Img =
        traced(T, "codegen.lower", Cell, [&] { return lowerToBinary(M, Opts); });
    for (const MFunction &F : Img.Functions)
      S.MInsts += F.instructionCount();
    return Img;
  }

  ImageFeatures features(const BinaryImage &Img) {
    return traced(T, "diffing.features", Cell,
                  [&] { return extractFeatures(Img); });
  }

  double diff(const std::string &ToolName, const BinaryImage &A,
              const ImageFeatures &FA, const BinaryImage &B,
              const ImageFeatures &FB) {
    std::unique_ptr<DiffTool> Tool = createDiffTool(ToolName);
    DiffResult R = traced(T, "diffing.tool." + ToolName, Cell,
                          [&] { return Tool->diff(A, FA, B, FB); });
    return traced(T, "diffing.precision", Cell,
                  [&] { return precisionAt1(A, B, R); });
  }

  ExecResult run(const Module &M, const ExecOptions &Opts) {
    BytecodeModule BM;
    traced(T, "vm.precompile", Cell, [&] { precompileModule(M, BM); });
    ExecResult R =
        traced(T, "vm.run", Cell, [&] { return runPrecompiled(BM, Opts); });
    S.VMSteps += R.Steps;
    return R;
  }
};

/// The un-obfuscated module at O2 (EvalPipeline::baseline).
struct BaseBuild {
  Context Ctx;
  std::unique_ptr<Module> M;
  std::string Error;
  uint64_t Insts = 0;
};

void buildBaseline(Layers &L, const Workload &W, BaseBuild &Out) {
  Out.M = L.compile(W, Out.Ctx, Out.Error);
  if (!Out.M)
    return;
  traced(L.T, "transform.opt", L.Cell,
         [&] { optimizeModule(*Out.M, OptLevel::O2); });
  Out.Insts = irInsts(*Out.M);
  L.S.BaselineInsts += Out.Insts;
}

/// The shared fission prefix (EvalPipeline::fissionStage).
struct FissionBuild {
  std::shared_ptr<Context> Ctx = std::make_shared<Context>();
  std::unique_ptr<Module> M;
  std::string Error;
  FissionPhase Phase;
};

void buildFission(Layers &L, const Workload &W, FissionBuild &Out) {
  Out.M = L.compile(W, *Out.Ctx, Out.Error);
  if (Out.M)
    Out.Phase = traced(L.T, "obfuscation.fission_phase", L.Cell,
                       [&] { return runFissionPhase(*Out.M); });
}

/// One obfuscated cell (EvalPipeline::obfuscate). Fission modes clone
/// \p F's module; \p BaseInsts feeds the IR growth ratio.
struct ObfBuild {
  std::shared_ptr<Context> Ctx;
  std::unique_ptr<Module> M;
  std::string Error;
};

ObfBuild buildObfuscated(Layers &L, const Workload &W, ObfuscationMode Mode,
                         uint64_t Seed, const FissionBuild &F,
                         uint64_t BaseInsts) {
  ObfBuild Out;
  KhaosOptions Opts;
  Opts.Seed = Seed;
  const std::string Span = std::string("obfuscation.") +
                           obfuscationModeName(Mode);
  if (modeUsesFission(Mode)) {
    Out.Ctx = F.Ctx;
    if (!F.M) {
      Out.Error = F.Error;
      return Out;
    }
    L.S.CloneCalls += 1;
    Out.M = traced(L.T, "transform.clone", L.Cell,
                   [&] { return cloneModule(*F.M); });
    traced(L.T, Span, L.Cell,
           [&] { finishFissionMode(*Out.M, Mode, Opts, F.Phase); });
  } else {
    Out.Ctx = std::make_shared<Context>();
    Out.M = L.compile(W, *Out.Ctx, Out.Error);
    if (!Out.M)
      return Out;
    traced(L.T, Span, L.Cell, [&] { obfuscateModule(*Out.M, Mode, Opts); });
  }
  L.S.VerifyCalls += 1;
  std::vector<std::string> Problems =
      traced(L.T, "ir.verify", L.Cell, [&] { return verifyModule(*Out.M); });
  if (!Problems.empty()) {
    Out.Error = "verifier: " + Problems.front();
    Out.M.reset();
    return Out;
  }
  L.S.ObfInsts += irInsts(*Out.M);
  L.S.ObfBaseInsts += BaseInsts;
  return Out;
}

EvalScheduler::Config schedulerConfig(unsigned Threads, uint64_t CellSeed) {
  EvalScheduler::Config C;
  C.Threads = Threads;
  C.Seed = CellSeed;
  return C;
}

//===----------------------------------------------------------------------===//
// diff: EvalScheduler::precisionMatrix in fig8's shape.
//===----------------------------------------------------------------------===//

class DiffWorkload : public BenchWorkload {
public:
  DiffWorkload(uint64_t Seed, unsigned Threads)
      : Seed(Seed), Threads(Threads),
        CellSeed(streamSeed(Seed, "perfbench-diff-cells")) {}

  void setup() override {
    SpecPool = bySize(concat(specCpu2006Suite(), specCpu2017Suite()));
    CorePool = bySize(coreUtilsSuite());
    SmallPool = bySize(deepBinDiffSubset());
    for (const std::string &Name : diffToolNames())
      if (!isDiffToolRegistered(Name)) {
        std::fprintf(stderr, "perfbench: diff tool '%s' not registered\n",
                     Name.c_str());
        std::exit(1);
      }
    // Warm-up: one cell through every tool fills the process's lazy
    // tables (token embeddings) before the window opens. A fixed seed
    // keeps set-up independent of --seed.
    EvalScheduler Warm(schedulerConfig(Threads, 0xc906));
    Warm.precisionMatrix({SmallPool.front()}, {ObfuscationMode::Sub},
                         diffToolNames());
  }

  bool roundsRepeat() const override { return false; }

  RoundResult round(unsigned Index) override {
    draw(Index);
    EvalScheduler Sched(schedulerConfig(Threads, CellSeed));
    const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
    std::vector<EvalScheduler::CellPrecision> M =
        Sched.precisionMatrix(Main, Modes, LightTools);
    std::vector<EvalScheduler::CellPrecision> S =
        Sched.precisionMatrix(Small, Modes, HeavyTools);
    RoundResult Out;
    account(M, LightTools.size(), Out);
    account(S, HeavyTools.size(), Out);
    Out.Lines = lines(M, S);
    Out.HasStore = true;
    Out.Store = Sched.pipeline().store().stats();
    return Out;
  }

  CellLines stagePass(Tracer &T) override {
    draw(0);
    EvalScheduler Sched(schedulerConfig(Threads, CellSeed));
    EvalPipeline &Pipe = Sched.pipeline();
    const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
    auto Plane = [&](const std::vector<Workload> &Ws,
                     const std::vector<std::string> &Tools, int64_t CellBase) {
      std::vector<EvalScheduler::CellPrecision> Out(Ws.size() * Modes.size());
      for (auto &C : Out)
        C.PerTool.assign(Tools.size(), -1.0);
      // Mirrors EvalScheduler::runCellToolPlane.
      Sched.forEachCellTask(Ws, Modes, Tools.size(), [&](const EvalTask &K) {
        const int64_t Cell = CellBase + static_cast<int64_t>(K.Cell.FlatIdx);
        ScopedSpan Task(&T, "harness.task", Cell);
        const Workload &W = *K.Cell.W;
        auto A = traced(&T, "harness.stage.baselineImage", Cell,
                        [&] { return Pipe.baselineImage(W); });
        if (modeUsesFission(K.Cell.Mode))
          traced(&T, "harness.stage.fissionStage", Cell,
                 [&] { return Pipe.fissionStage(W); });
        auto B = traced(&T, "harness.stage.obfuscatedImage", Cell, [&] {
          return Pipe.obfuscatedImage(W, K.Cell.Mode, K.Cell.Seed);
        });
        bool ImagesOk = A->Ok && B->Ok;
        if (K.ToolIdx == 0)
          Out[K.Cell.FlatIdx].Ok = ImagesOk;
        if (!ImagesOk)
          return;
        auto D = traced(&T, "harness.stage.diffOutcome", Cell, [&] {
          return Pipe.diffOutcome(W, K.Cell.Mode, K.Cell.Seed,
                                  Tools[K.ToolIdx], A, B);
        });
        if (D->Ok)
          Out[K.Cell.FlatIdx].PerTool[K.ToolIdx] = D->Outcome.Precision;
      });
      return Out;
    };
    auto M = Plane(Main, LightTools, 0);
    auto S = Plane(Small, HeavyTools,
                   static_cast<int64_t>(Main.size() * Modes.size()));
    return lines(M, S);
  }

  CellLines layerPass(Tracer *T, unsigned NThreads, LayerStats &S,
                      std::vector<std::string> &) override {
    draw(0);
    const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
    std::vector<EvalScheduler::CellPrecision> M(Main.size() * Modes.size());
    std::vector<EvalScheduler::CellPrecision> Sm(Small.size() * Modes.size());
    // One job per distinct program: a program in both matrices is built
    // once, as the shared store would build it.
    struct Job {
      const Workload *W;
      long MainIdx = -1, SmallIdx = -1;
    };
    std::vector<Job> Jobs;
    for (size_t I = 0; I != Main.size(); ++I)
      Jobs.push_back({&Main[I], static_cast<long>(I), -1});
    for (size_t I = 0; I != Small.size(); ++I) {
      auto It = std::find_if(Jobs.begin(), Jobs.end(), [&](const Job &J) {
        return J.W->Name == Small[I].Name;
      });
      if (It != Jobs.end())
        It->SmallIdx = static_cast<long>(I);
      else
        Jobs.push_back({&Small[I], -1, static_cast<long>(I)});
    }
    const int64_t SmallBase = static_cast<int64_t>(Main.size() * Modes.size());
    parallelFor(Jobs.size(), NThreads, [&](size_t JI) {
      const Job &J = Jobs[JI];
      const Workload &W = *J.W;
      Layers L{T, S};
      BaseBuild Base;
      buildBaseline(L, W, Base);
      BinaryImage A;
      ImageFeatures FA;
      if (Base.M) {
        A = L.lower(*Base.M, BuildConfig{}.Codegen);
        FA = L.features(A);
      }
      FissionBuild F;
      buildFission(L, W, F);
      for (size_t MI = 0; MI != Modes.size(); ++MI) {
        L.Cell = J.MainIdx >= 0
                     ? static_cast<int64_t>(J.MainIdx * Modes.size() + MI)
                     : SmallBase +
                           static_cast<int64_t>(J.SmallIdx * Modes.size() + MI);
        uint64_t CS = deriveCellSeed(CellSeed, W.Name, Modes[MI]);
        ObfBuild Obf = buildObfuscated(L, W, Modes[MI], CS, F, Base.Insts);
        bool Ok = Base.M && Obf.M;
        BinaryImage B;
        ImageFeatures FB;
        if (Ok) {
          B = L.lower(*Obf.M);
          FB = L.features(B);
        }
        auto Fill = [&](EvalScheduler::CellPrecision &C,
                        const std::vector<std::string> &Tools) {
          C.Ok = Ok;
          C.PerTool.assign(Tools.size(), -1.0);
          if (Ok)
            for (size_t TI = 0; TI != Tools.size(); ++TI)
              C.PerTool[TI] = L.diff(Tools[TI], A, FA, B, FB);
        };
        if (J.MainIdx >= 0)
          Fill(M[J.MainIdx * Modes.size() + MI], LightTools);
        if (J.SmallIdx >= 0)
          Fill(Sm[J.SmallIdx * Modes.size() + MI], HeavyTools);
      }
    });
    return lines(M, Sm);
  }

private:
  /// Sets Main and Small to round \p Index's programs: 10 SPEC + 6
  /// CoreUtils programs and 3 of DeepBinDiff's subset, stratified by size.
  /// Successive rounds draw different programs, so a timed run averages
  /// over most of the suites and its result depends little on the seed.
  void draw(unsigned Index) {
    RNG R = RNG::fromName("perfbench-diff-draw", Seed);
    Main = concat(stratifiedDraw(SpecPool, 10, R, Index),
                  stratifiedDraw(CorePool, 6, R, Index));
    Small = stratifiedDraw(SmallPool, 3, R, Index);
  }

  /// Cells, (cell × tool) tasks and failed tasks: a cell whose image pair
  /// failed fails all its tools.
  static void account(const std::vector<EvalScheduler::CellPrecision> &Cells,
                      size_t NumTools, RoundResult &Out) {
    for (const auto &C : Cells) {
      Out.Cells += 1;
      Out.Attempted += NumTools;
      if (!C.Ok)
        Out.Failed += NumTools;
      else
        Out.Failed += static_cast<uint64_t>(
            std::count_if(C.PerTool.begin(), C.PerTool.end(),
                          [](double P) { return P < 0.0; }));
    }
  }

  /// "M<matrix> <workload> <mode> <tool> <precision|n/a>", keyed by names.
  CellLines lines(const std::vector<EvalScheduler::CellPrecision> &M,
                  const std::vector<EvalScheduler::CellPrecision> &S) const {
    CellLines Out;
    auto Emit = [&](const char *Id, const std::vector<Workload> &Ws,
                    const std::vector<EvalScheduler::CellPrecision> &Cells,
                    const std::vector<std::string> &Tools) {
      const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
      for (size_t WI = 0; WI != Ws.size(); ++WI)
        for (size_t MI = 0; MI != Modes.size(); ++MI) {
          const auto &C = Cells[WI * Modes.size() + MI];
          for (size_t TI = 0; TI != Tools.size(); ++TI) {
            double P = C.Ok ? C.PerTool[TI] : -1.0;
            Out.push_back(std::string(Id) + " " + Ws[WI].Name + " " +
                          obfuscationModeName(Modes[MI]) + " " + Tools[TI] +
                          " " + (P >= 0.0 ? fmtDouble(P) : "n/a"));
          }
        }
    };
    Emit("M0", Main, M, LightTools);
    Emit("M1", Small, S, HeavyTools);
    return Out;
  }

  uint64_t Seed;
  unsigned Threads;
  uint64_t CellSeed;
  std::vector<Workload> SpecPool, CorePool, SmallPool; ///< Sorted by size.
  std::vector<Workload> Main, Small; ///< The current round's programs.
};

//===----------------------------------------------------------------------===//
// overhead: EvalScheduler::overheadMatrix over SPEC 2006 + 2017.
//===----------------------------------------------------------------------===//

class OverheadWorkload : public BenchWorkload {
public:
  OverheadWorkload(uint64_t Seed, unsigned Threads)
      : Threads(Threads),
        CellSeed(streamSeed(Seed, "perfbench-overhead-cells")) {}

  /// Generates the suites and runs every baseline once on the reference
  /// interpreter: the oracle the correctness check compares against.
  void setup() override {
    Suite = concat(specCpu2006Suite(), specCpu2017Suite());
    Oracle.assign(Suite.size(), ExecResult{});
    parallelFor(Suite.size(), Threads, [&](size_t I) {
      Context Ctx;
      std::string Error;
      std::unique_ptr<Module> M =
          compileMiniC(Suite[I].Source, Ctx, Suite[I].Name, Error);
      if (!M) {
        Oracle[I].Error = "compile: " + Error;
        return;
      }
      optimizeModule(*M, OptLevel::O2);
      ExecOptions EO;
      EO.Engine = VMEngine::Reference;
      Oracle[I] = runModule(*M, EO);
    });
  }

  bool roundsRepeat() const override { return true; }

  RoundResult round(unsigned) override {
    EvalScheduler Sched(schedulerConfig(Threads, CellSeed));
    std::vector<EvalScheduler::CellOverhead> Cells =
        Sched.overheadMatrix(Suite, OverheadModes);
    RoundResult Out;
    for (const auto &C : Cells) {
      Out.Cells += 1;
      Out.Attempted += 1;
      Out.Failed += C.Ok ? 0 : 1;
    }
    Out.Lines = lines(Cells);
    Out.HasStore = true;
    Out.Store = Sched.pipeline().store().stats();
    return Out;
  }

  CellLines stagePass(Tracer &T) override {
    EvalScheduler Sched(schedulerConfig(Threads, CellSeed));
    EvalPipeline &Pipe = Sched.pipeline();
    std::vector<EvalScheduler::CellOverhead> Cells(Suite.size() *
                                                   OverheadModes.size());
    // Mirrors EvalPipeline::overheadPercent.
    Sched.forEachCell(Suite, OverheadModes, [&](const EvalCell &C) {
      const int64_t Cell = static_cast<int64_t>(C.FlatIdx);
      ScopedSpan Task(&T, "harness.task", Cell);
      auto Base = traced(&T, "harness.stage.baselineRun", Cell,
                         [&] { return Pipe.baselineRun(*C.W); });
      if (!Base->Ok)
        return;
      if (modeUsesFission(C.Mode))
        traced(&T, "harness.stage.fissionStage", Cell,
               [&] { return Pipe.fissionStage(*C.W); });
      CompiledWorkload Obf = traced(&T, "harness.stage.obfuscate", Cell, [&] {
        return Pipe.obfuscate(*C.W, C.Mode, nullptr, C.Seed);
      });
      if (!Obf)
        return;
      ExecResult R = traced(&T, "harness.run", Cell,
                            [&] { return runModule(*Obf.M, ExecOptions{}); });
      measure(Base->Run, R, Cells[C.FlatIdx]);
    });
    return lines(Cells);
  }

  CellLines layerPass(Tracer *T, unsigned NThreads, LayerStats &S,
                      std::vector<std::string> &Problems) override {
    std::vector<EvalScheduler::CellOverhead> Cells(Suite.size() *
                                                   OverheadModes.size());
    std::mutex ProblemsM;
    auto Problem = [&](std::string P) {
      std::lock_guard<std::mutex> Lock(ProblemsM);
      Problems.push_back(std::move(P));
    };
    parallelFor(Suite.size(), NThreads, [&](size_t WI) {
      const Workload &W = Suite[WI];
      Layers L{T, S};
      BaseBuild Base;
      buildBaseline(L, W, Base);
      if (!Base.M)
        return;
      ExecResult BaseRun = L.run(*Base.M, ExecOptions{});
      const ExecResult &Ref = Oracle[WI];
      if (BaseRun.Ok != Ref.Ok || BaseRun.Stdout != Ref.Stdout ||
          BaseRun.ExitValue != Ref.ExitValue || BaseRun.Cost != Ref.Cost)
        Problem(W.Name + ": baseline run disagrees with the reference "
                         "interpreter");
      if (!BaseRun.Ok || BaseRun.Cost == 0)
        return;
      FissionBuild F;
      buildFission(L, W, F);
      for (size_t MI = 0; MI != OverheadModes.size(); ++MI) {
        const ObfuscationMode Mode = OverheadModes[MI];
        L.Cell = static_cast<int64_t>(WI * OverheadModes.size() + MI);
        ObfBuild Obf =
            buildObfuscated(L, W, Mode, deriveCellSeed(CellSeed, W.Name, Mode),
                            F, Base.Insts);
        if (!Obf.M)
          continue;
        ExecResult R = L.run(*Obf.M, ExecOptions{});
        // The independent check: every obfuscated program must print what
        // the reference interpreter printed for its baseline.
        EvalScheduler::CellOverhead &C = Cells[L.Cell];
        measure(Ref, R, C);
        if (C.Ok)
          C.Percent = percent(BaseRun, R);
      }
    });
    return lines(Cells);
  }

private:
  static double percent(const ExecResult &Base, const ExecResult &Obf) {
    return (static_cast<double>(Obf.Cost) - static_cast<double>(Base.Cost)) /
           static_cast<double>(Base.Cost) * 100.0;
  }

  static void measure(const ExecResult &Base, const ExecResult &Obf,
                      EvalScheduler::CellOverhead &Out) {
    Out.Ok = Obf.Ok && Obf.Stdout == Base.Stdout &&
             Obf.ExitValue == Base.ExitValue;
    if (Out.Ok)
      Out.Percent = percent(Base, Obf);
  }

  /// "M0 <workload> <mode> <percent|fail>".
  CellLines lines(const std::vector<EvalScheduler::CellOverhead> &Cells) const {
    CellLines Out;
    for (size_t WI = 0; WI != Suite.size(); ++WI)
      for (size_t MI = 0; MI != OverheadModes.size(); ++MI) {
        const auto &C = Cells[WI * OverheadModes.size() + MI];
        Out.push_back("M0 " + Suite[WI].Name + " " +
                      obfuscationModeName(OverheadModes[MI]) + " " +
                      (C.Ok ? fmtDouble(C.Percent) : "fail"));
      }
    return Out;
  }

  unsigned Threads;
  uint64_t CellSeed;
  std::vector<Workload> Suite;
  std::vector<ExecResult> Oracle; ///< Reference-interpreter baseline runs.
};

//===----------------------------------------------------------------------===//
// fuzz: DifferentialFuzzer::run, all modes, precompiled engine, default
// 256 MiB store cap.
//===----------------------------------------------------------------------===//

/// Programs per round; the fuzzer runs them in batches of
/// DifferentialFuzzer::Config::CasesPerBatch.
constexpr unsigned FuzzBudget = 64;

/// DifferentialFuzzer's termination policy and verdicts, restated so the
/// passes classify cells exactly as the fuzzer does.
uint64_t obfStepBudget(const ExecResult &Ref) {
  return std::max(Ref.Steps * DifferentialFuzzer::ObfStepsMultiplier,
                  DifferentialFuzzer::MinObfSteps);
}

DivergenceKind classify(const ExecResult &Ref, const ExecResult &Got,
                        uint64_t MaxSteps) {
  if (!Got.Ok)
    return Got.Steps >= MaxSteps ? DivergenceKind::Timeout
                                 : DivergenceKind::Trap;
  if (Got.ExitValue != Ref.ExitValue)
    return DivergenceKind::ExitValue;
  if (Got.Stdout != Ref.Stdout)
    return DivergenceKind::StdoutBytes;
  return DivergenceKind::None;
}

/// Verdicts of one case: the canonical form of the fuzzer's "case" line
/// and of its "divergence" lines.
struct CaseVerdict {
  bool BaselineOk = false;
  std::vector<DivergenceKind> Kinds; ///< Per mode.
};

CellLines caseLines(const std::vector<CaseVerdict> &Cases,
                    const std::vector<ObfuscationMode> &Modes) {
  CellLines Out;
  for (size_t CI = 0; CI != Cases.size(); ++CI) {
    const CaseVerdict &V = Cases[CI];
    unsigned Ok = 0, Div = 0;
    for (DivergenceKind K : V.Kinds)
      (K == DivergenceKind::None ? Ok : Div) += 1;
    Out.push_back(formatStr("case %06zu ok=%u div=%u base-err=%u", CI,
                            V.BaselineOk ? Ok : 0, V.BaselineOk ? Div : 0,
                            V.BaselineOk ? 0u : unsigned(Modes.size())));
    if (!V.BaselineOk)
      continue;
    for (size_t MI = 0; MI != Modes.size(); ++MI)
      if (V.Kinds[MI] != DivergenceKind::None)
        Out.push_back(formatStr("divergence %06zu mode=%s kind=%s", CI,
                                obfuscationModeName(Modes[MI]),
                                divergenceKindName(V.Kinds[MI])));
  }
  return Out;
}

/// The fuzzer's verdict stream in caseLines() form.
CellLines parseVerdicts(const std::string &Stream) {
  CellLines Out;
  std::istringstream In(Stream);
  for (std::string Line; std::getline(In, Line);) {
    std::istringstream Tok(Line);
    std::vector<std::string> T;
    for (std::string W; Tok >> W;)
      T.push_back(W);
    if (T.size() > 3 && T[0] == "case")
      Out.push_back("case " + T[1] + " " + T[T.size() - 3] + " " +
                    T[T.size() - 2] + " " + T[T.size() - 1]);
    else if (T.size() > 5 && T[0] == "divergence")
      Out.push_back("divergence " + T[1] + " " + T[3] + " " + T[5]);
  }
  return Out;
}

class FuzzWorkload : public BenchWorkload {
public:
  FuzzWorkload(uint64_t Seed, unsigned Threads)
      : Seed(Seed), Threads(Threads) {}

  /// Warms the process (allocator, lazy registries) with a small fuzz run
  /// on a fixed seed, so set-up does the same work for every --seed.
  void setup() override {
    std::ostringstream Sink;
    DifferentialFuzzer::Config C = config(0xc906);
    C.Budget = 8;
    C.Out = &Sink;
    DifferentialFuzzer(C).run();
  }

  bool roundsRepeat() const override { return false; }

  RoundResult round(unsigned Index) override {
    std::ostringstream Verdicts;
    DifferentialFuzzer::Config C = config(roundSeed(Index));
    C.Out = &Verdicts;
    FuzzReport Rep = DifferentialFuzzer(C).run();
    RoundResult Out;
    Out.Cells = Rep.Cells;
    Out.Attempted = Rep.Cells;
    Out.Failed = Rep.Divergences.size();
    Out.Divergences = Rep.Divergences.size();
    Out.BaselineErrors = Rep.BaselineErrors;
    Out.Lines = parseVerdicts(Verdicts.str());
    return Out;
  }

  CellLines stagePass(Tracer &T) override {
    const uint64_t FSeed = roundSeed(0);
    const DifferentialFuzzer::Config Defaults;
    const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
    std::vector<CaseVerdict> Cases(FuzzBudget);
    StageStore = {};
    // Mirrors DifferentialFuzzer::run: one scheduler per batch, a
    // baseline pre-pass, then the (case × mode) cells.
    for (unsigned Start = 0; Start < FuzzBudget;
         Start += Defaults.CasesPerBatch) {
      const unsigned End = std::min(FuzzBudget, Start + Defaults.CasesPerBatch);
      std::vector<Workload> Ws = programs(FSeed, Start, End, nullptr);
      EvalScheduler::Config SC = schedulerConfig(Threads, FSeed);
      SC.StoreMaxBytes = Defaults.StoreMaxBytes;
      EvalScheduler Sched(SC);
      EvalPipeline &Pipe = Sched.pipeline();
      std::vector<ExecResult> BaseRuns(Ws.size());
      const std::vector<ObfuscationMode> NoneMode = {ObfuscationMode::None};
      Sched.forEachCell(Ws, NoneMode, [&](const EvalCell &C) {
        const int64_t Cell = static_cast<int64_t>((Start + C.WorkloadIdx) *
                                                  (Modes.size() + 1));
        ScopedSpan Task(&T, "harness.task", Cell);
        auto Base = traced(&T, "harness.stage.baseline", Cell,
                           [&] { return Pipe.baseline(*C.W); });
        if (!*Base)
          return;
        ExecOptions EO;
        EO.MaxSteps = DifferentialFuzzer::BaselineMaxSteps;
        BaseRuns[C.WorkloadIdx] = traced(&T, "harness.run", Cell,
                                         [&] { return runModule(*Base->M, EO); });
        Cases[Start + C.WorkloadIdx].BaselineOk = BaseRuns[C.WorkloadIdx].Ok;
        Cases[Start + C.WorkloadIdx].Kinds.assign(Modes.size(),
                                                  DivergenceKind::None);
      });
      Sched.forEachCell(Ws, Modes, [&](const EvalCell &C) {
        CaseVerdict &V = Cases[Start + C.WorkloadIdx];
        if (!V.BaselineOk)
          return;
        const int64_t Cell = static_cast<int64_t>(
            (Start + C.WorkloadIdx) * (Modes.size() + 1) + C.ModeIdx + 1);
        ScopedSpan Task(&T, "harness.task", Cell);
        CompiledWorkload Obf = traced(&T, "harness.stage.obfuscate", Cell, [&] {
          return Pipe.obfuscate(*C.W, C.Mode, nullptr, C.Seed);
        });
        if (!Obf) {
          V.Kinds[C.ModeIdx] = DivergenceKind::CompileError;
          return;
        }
        const ExecResult &Ref = BaseRuns[C.WorkloadIdx];
        ExecOptions EO;
        EO.MaxSteps = obfStepBudget(Ref);
        ExecResult R = traced(&T, "harness.run", Cell,
                              [&] { return runModule(*Obf.M, EO); });
        V.Kinds[C.ModeIdx] = classify(Ref, R, EO.MaxSteps);
      });
      StageStore = sum(StageStore, Pipe.store().stats());
    }
    return caseLines(Cases, Modes);
  }

  CellLines layerPass(Tracer *T, unsigned NThreads, LayerStats &S,
                      std::vector<std::string> &) override {
    const uint64_t FSeed = roundSeed(0);
    const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
    std::vector<CaseVerdict> Cases(FuzzBudget);
    parallelFor(FuzzBudget, NThreads, [&](size_t CI) {
      const int64_t CellBase = static_cast<int64_t>(CI * (Modes.size() + 1));
      Layers L{T, S, CellBase};
      Workload W =
          programs(FSeed, static_cast<unsigned>(CI),
                   static_cast<unsigned>(CI) + 1, &L)
              .front();
      CaseVerdict &V = Cases[CI];
      BaseBuild Base;
      buildBaseline(L, W, Base);
      if (!Base.M)
        return;
      ExecOptions BO;
      BO.MaxSteps = DifferentialFuzzer::BaselineMaxSteps;
      ExecResult Ref = L.run(*Base.M, BO);
      if (!Ref.Ok)
        return;
      V.BaselineOk = true;
      V.Kinds.assign(Modes.size(), DivergenceKind::None);
      FissionBuild F;
      buildFission(L, W, F);
      for (size_t MI = 0; MI != Modes.size(); ++MI) {
        L.Cell = CellBase + static_cast<int64_t>(MI) + 1;
        ObfBuild Obf = buildObfuscated(
            L, W, Modes[MI], deriveCellSeed(FSeed, W.Name, Modes[MI]), F,
            Base.Insts);
        if (!Obf.M) {
          V.Kinds[MI] = DivergenceKind::CompileError;
          continue;
        }
        ExecOptions EO;
        EO.MaxSteps = obfStepBudget(Ref);
        V.Kinds[MI] = classify(Ref, L.run(*Obf.M, EO), EO.MaxSteps);
      }
    });
    return caseLines(Cases, Modes);
  }

  bool stageStore(ArtifactStore::Snapshot &Out) const override {
    Out = StageStore;
    return true;
  }

private:
  DifferentialFuzzer::Config config(uint64_t FuzzSeed) const {
    DifferentialFuzzer::Config C;
    C.Seed = FuzzSeed;
    C.Budget = FuzzBudget;
    C.Threads = Threads;
    // A divergence is counted as a failure; minimizing it would spend an
    // unbounded share of the window on one cell.
    C.Shrink = false;
    C.Engine = VMEngine::Precompiled;
    return C;
  }

  /// Each round fuzzes fresh programs.
  uint64_t roundSeed(unsigned Index) const {
    return streamSeed(Seed, "perfbench-fuzz-" + std::to_string(Index));
  }

  /// Cases [Start, End) of the fuzz run seeded \p FSeed, as the fuzzer
  /// materializes them; generation is timed when \p L is given.
  static std::vector<Workload> programs(uint64_t FSeed, unsigned Start,
                                       unsigned End, Layers *L) {
    std::vector<Workload> Out;
    for (unsigned I = Start; I != End; ++I) {
      ProgramSpec Spec = DifferentialFuzzer::sampleSpec(FSeed, I);
      Workload W;
      W.Name = Spec.Name;
      W.Source = traced(L ? L->T : nullptr, "workloads.generate",
                        L ? L->Cell : -1,
                        [&] { return generateMiniCProgram(Spec); });
      Out.push_back(std::move(W));
    }
    return Out;
  }

  /// Counter-wise A + B of the counters the report uses.
  static ArtifactStore::Snapshot sum(const ArtifactStore::Snapshot &A,
                                     const ArtifactStore::Snapshot &B) {
    ArtifactStore::Snapshot Out = A;
    for (size_t I = 0; I != static_cast<size_t>(ArtifactStage::NumStages);
         ++I) {
      Out.PerStage[I].Hits += B.PerStage[I].Hits;
      Out.PerStage[I].Misses += B.PerStage[I].Misses;
      Out.PerStage[I].Evictions += B.PerStage[I].Evictions;
    }
    Out.Hits += B.Hits;
    Out.Misses += B.Misses;
    Out.Evictions += B.Evictions;
    return Out;
  }

  uint64_t Seed;
  unsigned Threads;
  ArtifactStore::Snapshot StageStore;
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"diff", "overhead", "fuzz"};
  return Names;
}

const std::vector<std::string> &perfbench::diffToolNames() {
  static const std::vector<std::string> Names = {
      LightTools[0], LightTools[1], LightTools[2], LightTools[3],
      HeavyTools[0]};
  return Names;
}

const std::vector<ObfuscationMode> &perfbench::benchModes() {
  static const std::vector<ObfuscationMode> Modes = [] {
    std::vector<ObfuscationMode> Out = allObfuscationModes();
    Out.push_back(ObfuscationMode::Fla);
    return Out;
  }();
  return Modes;
}

std::unique_ptr<BenchWorkload>
perfbench::makeWorkload(const std::string &Name, uint64_t Seed,
                        unsigned Threads) {
  if (Name == "diff")
    return std::make_unique<DiffWorkload>(Seed, Threads);
  if (Name == "overhead")
    return std::make_unique<OverheadWorkload>(Seed, Threads);
  if (Name == "fuzz")
    return std::make_unique<FuzzWorkload>(Seed, Threads);
  return nullptr;
}
