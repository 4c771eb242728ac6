//===- tests/DifferentialFuzzTest.cpp - Differential fuzzer tests -----------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential fuzzer's own correctness net. The centerpiece plants a
/// deliberately broken obfuscation pass — through the planted fuzzer's
/// Config::ExtraPass only — and asserts the fuzzer finds the divergence,
/// the shrinker converges to the minimal generator spec, the pass
/// bisection names exactly the planted pass, and the emitted repro
/// replays. The remaining cases pin the step-sequence contract (the
/// pipeline's prefix route prints what the fresh driver prints), the
/// isolation of the planted hook, and the end-to-end determinism guarantee
/// (bit-identical output at any thread count).
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "harness/DifferentialFuzzer.h"
#include "harness/EvalScheduler.h"
#include "harness/Evaluator.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "support/Casting.h"
#include "vm/Interpreter.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>

using namespace khaos;

namespace {

/// The planted bug: rewrites every integer multiply in the module into an
/// add — a silent semantic change of the kind a buggy obfuscation pass
/// would introduce. Only the fuzzers that name it in their Config run it.
class PlantedMulFlip : public Pass {
public:
  const char *getName() const override { return "planted-mul-flip"; }
  bool run(Module &M) override {
    bool Changed = false;
    for (const auto &F : M.functions()) {
      if (F->isDeclaration())
        continue;
      for (const auto &BB : F->blocks()) {
        // Snapshot: the rewrite inserts and erases instructions.
        std::vector<BinaryInst *> Sites;
        for (const auto &I : BB->insts()) {
          auto *B = dyn_cast<BinaryInst>(I.get());
          if (B && B->getBinOp() == BinOp::Mul && !B->isFloatOp())
            Sites.push_back(B);
        }
        for (BinaryInst *B : Sites) {
          IRBuilder Bld(M);
          Bld.setInsertBefore(B);
          Value *NewV = Bld.createBinOp(BinOp::Add, B->getLHS(),
                                        B->getRHS());
          if (B->hasUses())
            B->replaceAllUsesWith(NewV);
          B->eraseFromParent();
          Changed = true;
        }
      }
    }
    return Changed;
  }
};

std::unique_ptr<Pass> plantedPass() {
  return std::make_unique<PlantedMulFlip>();
}

DifferentialFuzzer::Config plantedConfig(std::ostream *Out,
                                         unsigned Threads) {
  DifferentialFuzzer::Config Cfg;
  Cfg.Seed = 0x7e57;
  Cfg.Budget = 3;
  Cfg.Threads = Threads;
  Cfg.Modes = {ObfuscationMode::Sub};
  Cfg.Out = Out;
  Cfg.ExtraPass = plantedPass;
  return Cfg;
}

TEST(PlantedDivergenceTest, FuzzerFindsShrinksAndBisectsThePlantedPass) {
  std::ostringstream OS;
  DifferentialFuzzer Fuzzer(plantedConfig(&OS, 2));
  FuzzReport Report = Fuzzer.run();

  // The flip perturbs the printed checksum of essentially every program.
  ASSERT_FALSE(Report.Divergences.empty());
  EXPECT_EQ(Report.BaselineErrors, 0u);

  const FuzzDivergence &D = Report.Divergences.front();
  // The shrinker must converge to the generator's floor: the bug lives in
  // every function body, so nothing blocks full reduction.
  EXPECT_EQ(D.Shrunk.Spec.NumFunctions, 3u);
  EXPECT_EQ(D.Shrunk.Spec.MainIterations, 1u);
  EXPECT_FALSE(D.Shrunk.Spec.UseExceptions);
  EXPECT_FALSE(D.Shrunk.Spec.UseSetjmp);

  // The bisection names exactly the planted pass — not substitution
  // before it, not the post-opt passes after it.
  EXPECT_EQ(D.Shrunk.GuiltyStep, "extra:planted-mul-flip");
  ASSERT_GT(D.Shrunk.GuiltyStepIndex, 0u);
  KhaosOptions Opts;
  Opts.ExtraPass = plantedPass;
  std::vector<std::string> Steps =
      obfuscationStepNames(ObfuscationMode::Sub, Opts);
  ASSERT_LE(D.Shrunk.GuiltyStepIndex, Steps.size());
  EXPECT_EQ(Steps[D.Shrunk.GuiltyStepIndex - 1], D.Shrunk.GuiltyStep);

  // The repro is self-contained: replaying it reproduces a divergence.
  ReplayResult R = Fuzzer.replayRepro(D.ReproText);
  EXPECT_EQ(R.State, ReplayResult::Status::Replayed) << R.Message;
  EXPECT_NE(R.Kind, DivergenceKind::None) << R.Message;
}

TEST(PlantedDivergenceTest, VerdictsAndReprosAreThreadCountInvariant) {
  std::ostringstream A, B;
  FuzzReport RA = DifferentialFuzzer(plantedConfig(&A, 1)).run();
  FuzzReport RB = DifferentialFuzzer(plantedConfig(&B, 4)).run();
  EXPECT_EQ(A.str(), B.str());
  ASSERT_EQ(RA.Divergences.size(), RB.Divergences.size());
  for (size_t I = 0; I != RA.Divergences.size(); ++I) {
    EXPECT_EQ(RA.Divergences[I].ReproText, RB.Divergences[I].ReproText);
    EXPECT_EQ(RA.Divergences[I].ReproName, RB.Divergences[I].ReproName);
  }
}

/// The planted pass lives in one fuzzer's Config, not in the process: a
/// clean fuzzer over the same programs, running at the same time on
/// another thread, sees none of it. Under TSan this is also the check that
/// the hook shares no state between the two runs.
TEST(PlantedDivergenceTest, PlantedAndCleanFuzzersShareNoState) {
  std::ostringstream PlantedOut, CleanOut;
  DifferentialFuzzer::Config Planted = plantedConfig(&PlantedOut, 2);
  Planted.Shrink = false;
  DifferentialFuzzer::Config Clean = Planted;
  Clean.Out = &CleanOut;
  Clean.ExtraPass = nullptr;
  FuzzReport PlantedReport, CleanReport;
  std::thread T(
      [&] { PlantedReport = DifferentialFuzzer(Planted).run(); });
  CleanReport = DifferentialFuzzer(Clean).run();
  T.join();
  EXPECT_FALSE(PlantedReport.Divergences.empty());
  EXPECT_TRUE(CleanReport.Divergences.empty()) << CleanOut.str();
  EXPECT_EQ(CleanReport.Passes, CleanReport.Cells);
}

//===----------------------------------------------------------------------===//
// Step-sequence contract (the bisection's foundation).
//===----------------------------------------------------------------------===//

TEST(ObfuscationSteps, FullPrefixIsExactlyObfuscateModule) {
  ProgramSpec S = DifferentialFuzzer::sampleSpec(0xabc, 2);
  std::string Source = generateMiniCProgram(S);
  for (ObfuscationMode Mode :
       {ObfuscationMode::Sub, ObfuscationMode::Fusion,
        ObfuscationMode::FuFiAll}) {
    Context CtxA, CtxB;
    std::string Error;
    auto A = compileMiniC(Source, CtxA, S.Name, Error);
    auto B = compileMiniC(Source, CtxB, S.Name, Error);
    ASSERT_TRUE(A && B) << Error;
    KhaosOptions Opts;
    Opts.Seed = 0x5eed;
    obfuscateModule(*A, Mode, Opts);
    Opts.Steps = obfuscationStepNames(Mode, Opts).size();
    obfuscateModule(*B, Mode, Opts);
    EXPECT_EQ(printModule(*A), printModule(*B))
        << "mode " << obfuscationModeName(Mode);
  }
}

/// The fuzzer's one route: EvalPipeline::obfuscate, where fission modes
/// clone the cached fission stage, prints exactly what a fresh compile plus
/// obfuscateModule prints under the same options, at any step prefix.
TEST(ObfuscationSteps, PipelinePrefixMatchesFreshDriver) {
  EvalPipeline Pipe;
  auto Check = [&Pipe](const Workload &W, ObfuscationMode Mode,
                       size_t Steps) {
    KhaosOptions Opts;
    Opts.Seed = 0x5eed;
    Opts.Steps = Steps;
    CompiledWorkload Got = Pipe.obfuscate(W, Mode, Opts);
    Context Ctx;
    std::string Error;
    std::unique_ptr<Module> Want = compileMiniC(W.Source, Ctx, W.Name, Error);
    ASSERT_TRUE(Got && Want) << Got.Error << Error;
    obfuscateModule(*Want, Mode, Opts);
    EXPECT_EQ(printModule(*Got.M), printModule(*Want))
        << W.Name << " mode " << obfuscationModeName(Mode) << " steps "
        << Steps;
  };
  std::vector<Workload> Programs;
  for (unsigned Index : {2u, 3u}) {
    ProgramSpec S = DifferentialFuzzer::sampleSpec(0xabc, Index);
    Programs.emplace_back();
    Programs.back().Name = S.Name;
    Programs.back().Source = generateMiniCProgram(S);
  }
  std::vector<ObfuscationMode> Modes = allObfuscationModes();
  Modes.push_back(ObfuscationMode::Fla);
  for (const Workload &W : Programs)
    for (ObfuscationMode Mode : Modes)
      Check(W, Mode, SIZE_MAX);
  for (ObfuscationMode Mode : {ObfuscationMode::Sub, ObfuscationMode::FuFiAll})
    for (size_t K = 0, N = obfuscationStepNames(Mode).size(); K <= N; ++K)
      Check(Programs.front(), Mode, K);
}

TEST(ObfuscationSteps, NamesMatchTheModePipeline) {
  KhaosOptions Opts;
  std::vector<std::string> Sub =
      obfuscationStepNames(ObfuscationMode::Sub, Opts);
  ASSERT_FALSE(Sub.empty());
  EXPECT_EQ(Sub.front(), "substitution");
  EXPECT_EQ(Sub[1], "post-opt:simplifycfg#1");

  std::vector<std::string> FuFi =
      obfuscationStepNames(ObfuscationMode::FuFiAll, Opts);
  ASSERT_GE(FuFi.size(), 2u);
  EXPECT_EQ(FuFi[0], "fission");
  EXPECT_EQ(FuFi[1], "fusion");

  // Fission alone has no fusion step.
  std::vector<std::string> Fission =
      obfuscationStepNames(ObfuscationMode::Fission, Opts);
  EXPECT_EQ(Fission.front(), "fission");
  EXPECT_EQ(std::count(Fission.begin(), Fission.end(), "fusion"), 0);

  // Disabling post-opt strips the post-opt steps, nothing else.
  KhaosOptions NoPost;
  NoPost.RunPostOpt = false;
  EXPECT_EQ(obfuscationStepNames(ObfuscationMode::Sub, NoPost).size(), 1u);

  // The extra-pass hook appears between the primitive and post-opt.
  KhaosOptions Planted;
  Planted.ExtraPass = plantedPass;
  std::vector<std::string> WithExtra =
      obfuscationStepNames(ObfuscationMode::Sub, Planted);
  ASSERT_GE(WithExtra.size(), 2u);
  EXPECT_EQ(WithExtra[0], "substitution");
  EXPECT_EQ(WithExtra[1], "extra:planted-mul-flip");
  EXPECT_EQ(WithExtra.size(), Sub.size() + 1);
}

//===----------------------------------------------------------------------===//
// Clean-pipeline behaviour and plumbing.
//===----------------------------------------------------------------------===//

TEST(DifferentialFuzzer, CleanPipelineProducesNoDivergences) {
  std::ostringstream OS;
  DifferentialFuzzer::Config Cfg;
  Cfg.Seed = 0x11;
  Cfg.Budget = 2;
  Cfg.Threads = 2;
  Cfg.Out = &OS;
  FuzzReport Report = DifferentialFuzzer(Cfg).run();
  EXPECT_TRUE(Report.Divergences.empty());
  EXPECT_EQ(Report.BaselineErrors, 0u);
  EXPECT_EQ(Report.Passes, Report.Cells);
  EXPECT_NE(OS.str().find("summary seed=0x11"), std::string::npos);
}

/// khaos-fuzz binds --seed straight to Config::Seed, so a run without
/// the flag fuzzes the struct's default, which is the seed every other
/// binary defaults to.
TEST(DifferentialFuzzer, DefaultSeedIsTheSchedulerDefault) {
  EXPECT_EQ(DifferentialFuzzer::Config{}.Seed, EvalScheduler::Config{}.Seed);
}

TEST(DifferentialFuzzer, SampleSpecIsPureAndSweepsTheCorners) {
  bool SawEH = false, SawSetjmp = false, SawDeepLoop = false;
  for (unsigned I = 0; I != 64; ++I) {
    ProgramSpec A = DifferentialFuzzer::sampleSpec(42, I);
    ProgramSpec B = DifferentialFuzzer::sampleSpec(42, I);
    EXPECT_EQ(A.Name, B.Name);
    EXPECT_EQ(A.Seed, B.Seed);
    EXPECT_EQ(A.NumFunctions, B.NumFunctions);
    EXPECT_GE(A.NumFunctions, 3u);
    SawEH |= A.UseExceptions;
    SawSetjmp |= A.UseSetjmp;
    SawDeepLoop |= A.MaxLoopDepth > 2; // Past the fixed suites' depth.
  }
  EXPECT_TRUE(SawEH);
  EXPECT_TRUE(SawSetjmp);
  EXPECT_TRUE(SawDeepLoop);
  // Different base seeds sample different programs.
  EXPECT_NE(DifferentialFuzzer::sampleSpec(1, 0).Seed,
            DifferentialFuzzer::sampleSpec(2, 0).Seed);
}

TEST(DifferentialFuzzer, ReplayRejectsMalformedRepros) {
  const DifferentialFuzzer Fuzzer{DifferentialFuzzer::Config{}};
  const std::string Seed = "# obf-seed: 0x5\n";
  const std::string Good = "# khaos-fuzz repro v1\n"
                           "# name: tiny\n"
                           "# mode: Sub\n" +
                           Seed +
                           "# --- MiniC source ---\n"
                           "int main() {\n"
                           "  int x = 6;\n"
                           "  return x * 7;\n"
                           "}\n";
  ReplayResult R = Fuzzer.replayRepro(Good);
  EXPECT_EQ(R.State, ReplayResult::Status::Replayed) << R.Message;
  EXPECT_EQ(R.Kind, DivergenceKind::None) << R.Message;

  auto WithSeedLine = [&](const std::string &Line) {
    std::string Text = Good;
    Text.replace(Text.find(Seed), Seed.size(), Line);
    return Text;
  };
  // A garbage or missing obf-seed is a malformed repro, never seed 0.
  for (const std::string &Bad :
       {std::string("not a repro\n"),
        std::string("# khaos-fuzz repro v1\n# mode: Sub\n"),
        WithSeedLine("# obf-seed: 0xzz\n"), WithSeedLine(""),
        WithSeedLine("# obf-seed: 12abc\n"),
        WithSeedLine("# obf-seed: -5\n"),
        WithSeedLine("# obf-seed: 017\n")}) {
    R = Fuzzer.replayRepro(Bad);
    EXPECT_EQ(R.State, ReplayResult::Status::Malformed) << Bad;
    EXPECT_FALSE(R.Message.empty());
  }
  EXPECT_EQ(Fuzzer.replayRepro(WithSeedLine("# obf-seed: 5\n")).State,
            ReplayResult::Status::Replayed);

  // A source whose baseline does not build is reported as such.
  std::string Broken = Good;
  Broken.replace(Broken.find("x * 7"), 5, "y * 7");
  R = Fuzzer.replayRepro(Broken);
  EXPECT_EQ(R.State, ReplayResult::Status::BaselineFailed);
  EXPECT_NE(R.Message.find("baseline"), std::string::npos) << R.Message;
}

TEST(DifferentialFuzzer, ParseObfuscationModeNames) {
  ObfuscationMode M;
  ASSERT_TRUE(parseObfuscationModeName("FuFi.all", M));
  EXPECT_EQ(M, ObfuscationMode::FuFiAll);
  ASSERT_TRUE(parseObfuscationModeName("fufi_all", M));
  EXPECT_EQ(M, ObfuscationMode::FuFiAll);
  ASSERT_TRUE(parseObfuscationModeName("fla-10", M));
  EXPECT_EQ(M, ObfuscationMode::Fla10);
  ASSERT_TRUE(parseObfuscationModeName("sub", M));
  EXPECT_EQ(M, ObfuscationMode::Sub);
  EXPECT_FALSE(parseObfuscationModeName("nope", M));
}

/// A trap-divergence repro must name the faulting function and block
/// (the ExecResult fault-context contract the fuzzer's repros rely on).
TEST(DifferentialFuzzer, TrapDivergenceCarriesFaultContext) {
  const char *Source = "int helper(int a) {\n"
                       "  return 100 / a;\n"
                       "}\n"
                       "int main() {\n"
                       "  int x = 3;\n"
                       "  return helper(x - 3);\n"
                       "}\n";
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(Source, Ctx, "trapper", Error);
  ASSERT_TRUE(M) << Error;
  ExecResult R = runModule(*M);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.FaultFunction, "helper");
  EXPECT_FALSE(R.FaultBlock.empty());
  EXPECT_NE(R.Error.find("helper"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos) << R.Error;
}

} // namespace
