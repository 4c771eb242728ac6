//===- tests/PropertyTest.cpp - Randomized sweeps over generated programs ----===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based testing: for a grid of generator seeds × program shapes
/// × obfuscation modes, the whole pipeline must hold its invariants —
/// parse, verify, run, obfuscate, verify again, run again with identical
/// observable behaviour, lower, extract features. These sweeps exercise
/// combinations (EH × fission, setjmp × fusion, indirect calls × tagged
/// pointers, ...) that the targeted tests cannot enumerate.
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "obfuscation/KhaosDriver.h"
#include "transform/Cloning.h"
#include "vm/Interpreter.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

using namespace khaos;

namespace {

ProgramSpec specForSeed(uint64_t Seed) {
  ProgramSpec S;
  S.Name = "prop-" + std::to_string(Seed);
  S.Seed = Seed;
  S.NumFunctions = 10 + Seed % 17;
  S.FloatRatio = (Seed % 5) * 0.12;
  S.RecursionRatio = (Seed % 3) * 0.1;
  S.UseIndirectCalls = Seed % 2 == 0;
  S.UseExceptions = Seed % 3 == 0;
  S.UseSetjmp = Seed % 5 == 0;
  // The newer idiom knobs, staggered so each appears alone and combined
  // across the sweep (string-heavy code feeds StrEnc something real;
  // switch-dense and goto-dense shapes stress Fla/SplitBB rewiring).
  S.StringRatio = (Seed % 4 == 1) ? 0.5 : 0.0;
  S.UseSwitchDispatch = Seed % 4 == 2;
  S.UseGotos = Seed % 4 == 3;
  S.MainIterations = 6;
  return S;
}

/// One (seed, mode) pipeline check.
void checkSeedMode(uint64_t Seed, ObfuscationMode Mode) {
  ProgramSpec S = specForSeed(Seed);
  std::string Source = generateMiniCProgram(S);

  Context Ctx;
  std::string Error;
  auto Base = compileMiniC(Source, Ctx, S.Name, Error);
  ASSERT_TRUE(Base) << "seed " << Seed << ": " << Error;
  ASSERT_TRUE(verifyModule(*Base).empty()) << "seed " << Seed;
  optimizeModule(*Base, OptLevel::O2);
  ExecResult Ref = runModule(*Base);
  ASSERT_TRUE(Ref.Ok) << "seed " << Seed << ": " << Ref.Error;

  Context Ctx2;
  auto Obf = compileMiniC(Source, Ctx2, S.Name, Error);
  ASSERT_TRUE(Obf) << Error;
  KhaosOptions Opts;
  Opts.Seed = Seed * 77 + 1;
  obfuscateModule(*Obf, Mode, Opts);
  std::vector<std::string> Problems = verifyModule(*Obf);
  ASSERT_TRUE(Problems.empty())
      << "seed " << Seed << " mode " << obfuscationModeName(Mode) << ": "
      << Problems.front();
  ExecResult Got = runModule(*Obf);
  ASSERT_TRUE(Got.Ok) << "seed " << Seed << " mode "
                      << obfuscationModeName(Mode) << ": " << Got.Error;
  EXPECT_EQ(Got.Stdout, Ref.Stdout)
      << "seed " << Seed << " mode " << obfuscationModeName(Mode);
  EXPECT_EQ(Got.ExitValue, Ref.ExitValue)
      << "seed " << Seed << " mode " << obfuscationModeName(Mode);
}

class GeneratedProgramSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GeneratedProgramSweep, BehaviourPreserved) {
  uint64_t Seed = 100 + std::get<0>(GetParam());
  ObfuscationMode Mode = allObfuscationModes()[std::get<1>(GetParam())];
  checkSeedMode(Seed, Mode);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByModes, GeneratedProgramSweep,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Range(0, (int)allObfuscationModes()
                                               .size())),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
      std::string Mode = obfuscationModeName(
          allObfuscationModes()[std::get<1>(Info.param)]);
      for (char &C : Mode)
        if (C == '.' || C == '-')
          C = '_';
      return "seed" + std::to_string(std::get<0>(Info.param)) + "_" + Mode;
    });

/// VM-equivalence sweep: 25 seeds × every ObfuscationMode must preserve
/// ExitValue and Stdout against the O2 baseline. This is the fuzzer-
/// independent regression net for the semantic oracle — a fixed grid the
/// default CTest run always covers, regardless of what the fuzz tier's
/// budget happens to reach. The baseline compiles and runs once per seed
/// and is shared by all modes (the sweep's cost is dominated by the
/// obfuscated builds).
TEST(GeneratedProgramProperties, VMEquivalenceSweep) {
  for (uint64_t Seed = 900; Seed != 925; ++Seed) {
    ProgramSpec S = specForSeed(Seed);
    std::string Source = generateMiniCProgram(S);

    Context RefCtx;
    std::string Error;
    auto Ref = compileMiniC(Source, RefCtx, S.Name, Error);
    ASSERT_TRUE(Ref) << "seed " << Seed << ": " << Error;
    optimizeModule(*Ref, OptLevel::O2);
    ExecResult RefRun = runModule(*Ref);
    ASSERT_TRUE(RefRun.Ok) << "seed " << Seed << ": " << RefRun.Error;

    for (ObfuscationMode Mode : allObfuscationModes()) {
      Context Ctx;
      auto Obf = compileMiniC(Source, Ctx, S.Name, Error);
      ASSERT_TRUE(Obf) << Error;
      KhaosOptions Opts;
      Opts.Seed = Seed * 131 + 7;
      obfuscateModule(*Obf, Mode, Opts);
      std::vector<std::string> Problems = verifyModule(*Obf);
      ASSERT_TRUE(Problems.empty())
          << "seed " << Seed << " mode " << obfuscationModeName(Mode)
          << ": " << Problems.front();
      ExecResult Got = runModule(*Obf);
      ASSERT_TRUE(Got.Ok) << "seed " << Seed << " mode "
                          << obfuscationModeName(Mode) << ": " << Got.Error;
      ASSERT_EQ(Got.ExitValue, RefRun.ExitValue)
          << "seed " << Seed << " mode " << obfuscationModeName(Mode);
      ASSERT_EQ(Got.Stdout, RefRun.Stdout)
          << "seed " << Seed << " mode " << obfuscationModeName(Mode);
    }
  }
}

/// Obfuscation at two different seeds must produce *different* module
/// shapes (fusion pairing is randomized) but identical behaviour.
TEST(GeneratedProgramProperties, ObfuscationSeedChangesShapeNotMeaning) {
  ProgramSpec S = specForSeed(400);
  std::string Source = generateMiniCProgram(S);
  Context CtxA, CtxB;
  std::string Error;
  auto A = compileMiniC(Source, CtxA, "a", Error);
  auto B = compileMiniC(Source, CtxB, "b", Error);
  ASSERT_TRUE(A && B);
  KhaosOptions OptsA, OptsB;
  OptsA.Seed = 1;
  OptsB.Seed = 2;
  obfuscateModule(*A, ObfuscationMode::Fusion, OptsA);
  obfuscateModule(*B, ObfuscationMode::Fusion, OptsB);
  ExecResult RA = runModule(*A);
  ExecResult RB = runModule(*B);
  ASSERT_TRUE(RA.Ok && RB.Ok);
  EXPECT_EQ(RA.Stdout, RB.Stdout);
  // Different pairings → different fused function inventories (very high
  // probability; both seeds fixed here so this is deterministic).
  std::vector<std::string> NamesA, NamesB;
  for (const auto &F : A->functions())
    NamesA.push_back(F->getName());
  for (const auto &F : B->functions())
    NamesB.push_back(F->getName());
  EXPECT_NE(printModule(*A), printModule(*B));
}

/// Fission must be idempotent in behaviour under repeated application.
TEST(GeneratedProgramProperties, DoubleFissionStillCorrect) {
  ProgramSpec S = specForSeed(512);
  std::string Source = generateMiniCProgram(S);
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(Source, Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  ExecResult Ref = runModule(*M);
  ASSERT_TRUE(Ref.Ok);
  FissionStats St1, St2;
  runFission(*M, St1);
  runFission(*M, St2); // Second round attacks remFuncs and sepFuncs.
  ASSERT_TRUE(verifyModule(*M).empty());
  ExecResult Got = runModule(*M);
  ASSERT_TRUE(Got.Ok) << Got.Error;
  EXPECT_EQ(Got.Stdout, Ref.Stdout);
}

/// Provenance is closed under both primitives: every function's origin
/// list refers to functions that existed pre-obfuscation.
TEST(GeneratedProgramProperties, ProvenanceRefersToOriginalFunctions) {
  ProgramSpec S = specForSeed(777);
  std::string Source = generateMiniCProgram(S);
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(Source, Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  std::set<std::string> Originals;
  for (const auto &F : M->functions())
    Originals.insert(F->getName());
  obfuscateModule(*M, ObfuscationMode::FuFiAll);
  for (const auto &F : M->functions()) {
    if (F->isDeclaration())
      continue;
    for (const std::string &O : F->getOrigins())
      EXPECT_TRUE(Originals.count(O))
          << F->getName() << " has foreign origin " << O;
  }
}

/// cloneModule is the pipeline's cache-sharing primitive (every stage and
/// every cell clones its workload's frontend artifact), so its contract
/// gets a randomized regression net: over ~100 generated program shapes,
/// the clone prints byte-identical IR to the source, cloning leaves the
/// source bit-identical, and obfuscating the clone never perturbs the
/// source. An early clone that wrote the source's use lists crashed only
/// on specific shapes — a seed sweep is the durable way to keep such bugs
/// dead. (PipelineCache.ConcurrentClonesNeedNoLock checks, under TSan,
/// that a clone only reads its source.)
/// Labeled slow (SlowStress) so the default ctest wall-clock stays lean.
TEST(GeneratedProgramProperties, CloneModuleRoundTripSweepSlowStress) {
  const ObfuscationMode MutateModes[] = {
      ObfuscationMode::Sub, ObfuscationMode::Fission,
      ObfuscationMode::Fusion, ObfuscationMode::FuFiAll};
  for (uint64_t I = 0; I != 100; ++I) {
    uint64_t Seed = 1000 + I;
    ProgramSpec S = specForSeed(Seed);
    Context Ctx;
    std::string Error;
    auto M = compileMiniC(generateMiniCProgram(S), Ctx, S.Name, Error);
    ASSERT_TRUE(M) << "seed " << Seed << ": " << Error;
    // Half the sweep clones post-O2 shapes, half the unoptimized shapes
    // the Frontend stage caches.
    if (I % 2 == 0)
      optimizeModule(*M, OptLevel::O2);
    const std::string Before = printModule(*M);

    std::unique_ptr<Module> Clone = cloneModule(*M);
    ASSERT_EQ(printModule(*M), Before)
        << "seed " << Seed << ": cloning perturbed the source module";
    ASSERT_EQ(printModule(*Clone), Before)
        << "seed " << Seed << ": clone is not byte-identical";

    // Mutating the clone (the FuFi pattern) must leave the source alone.
    KhaosOptions Opts;
    Opts.Seed = Seed * 13 + 5;
    obfuscateModule(*Clone, MutateModes[I % 4], Opts);
    ASSERT_TRUE(verifyModule(*Clone).empty())
        << "seed " << Seed << ": obfuscated clone fails the verifier";
    ASSERT_EQ(printModule(*M), Before)
        << "seed " << Seed << ": mutating the clone perturbed the source";
  }
}

/// The region identifier's contract on arbitrary generated functions:
/// disjoint dominator subtrees headed by their first block.
TEST(GeneratedProgramProperties, RegionInvariantsHold) {
  for (uint64_t Seed : {21u, 22u, 23u}) {
    ProgramSpec S = specForSeed(Seed);
    Context Ctx;
    std::string Error;
    auto M = compileMiniC(generateMiniCProgram(S), Ctx, "t", Error);
    ASSERT_TRUE(M) << Error;
    for (const auto &F : M->functions()) {
      if (F->isDeclaration() || F->isIntrinsic())
        continue;
      std::set<BasicBlock *> Seen;
      for (const Region &R : identifyRegions(*F)) {
        EXPECT_EQ(R.Blocks.front(), R.Head);
        EXPECT_NE(R.Head, F->getEntryBlock());
        for (BasicBlock *BB : R.Blocks)
          EXPECT_TRUE(Seen.insert(BB).second);
      }
    }
  }
}

} // namespace
