//===- tests/VMEngineTest.cpp - Reference vs precompiled engine A/B ---------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The A/B contract of the two VM execution engines: for any verified
/// module the reference interpreter (the semantic oracle) and the
/// precompiled register-file engine must produce byte-identical
/// ExecResults — Ok, ExitValue, Stdout, Steps, Cost, and on traps the
/// message with its "(in <fn>:<block>)" fault context. Coverage:
///
///  - golden step counts over the fig6 (SPEC 2006 + 2017) workloads, so
///    superinstruction-accounting drift is caught against pinned numbers,
///    with superinstructions toggled both ways;
///  - per-trap-kind parity (div-by-zero, OOB, bad indirect call, step
///    limit, call depth) including the fault-context suffix;
///  - a 25-seed × all-modes cross-VM sweep over generated programs
///    pushed through the full obfuscation pipeline.
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "obfuscation/KhaosDriver.h"
#include "vm/Bytecode.h"
#include "vm/Interpreter.h"
#include "vm/PrecompiledInterpreter.h"
#include "workloads/Suites.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

using namespace khaos;

namespace {

/// Asserts full observational equality of two runs of the same program
/// (ExecResult's operator==), naming each differing field.
void expectSameObservation(const ExecResult &Ref, const ExecResult &Got,
                           const std::string &What) {
  EXPECT_TRUE(Ref == Got) << What;
  EXPECT_EQ(Ref.Ok, Got.Ok) << What;
  EXPECT_EQ(Ref.Error, Got.Error) << What;
  EXPECT_EQ(Ref.FaultFunction, Got.FaultFunction) << What;
  EXPECT_EQ(Ref.FaultBlock, Got.FaultBlock) << What;
  EXPECT_EQ(Ref.ExitValue, Got.ExitValue) << What;
  EXPECT_EQ(Ref.Stdout, Got.Stdout) << What;
  EXPECT_EQ(Ref.Steps, Got.Steps) << What;
  EXPECT_EQ(Ref.Cost, Got.Cost) << What;
}

/// Runs \p M under both engines (same options) and asserts equality;
/// returns the reference run for further checks.
ExecResult runBothEngines(const Module &M, const std::string &What,
                          ExecOptions Opts = {}) {
  Opts.Engine = VMEngine::Reference;
  ExecResult Ref = runModule(M, Opts);
  Opts.Engine = VMEngine::Precompiled;
  ExecResult Pre = runModule(M, Opts);
  expectSameObservation(Ref, Pre, What);
  return Ref;
}

/// Compiles MiniC (must succeed) and A/B-runs it.
ExecResult compileAndRunBoth(const std::string &Source,
                             const std::string &What, ExecOptions Opts = {}) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(Source, Ctx, What, Error);
  EXPECT_TRUE(M) << What << ": compile error: " << Error;
  if (!M)
    return {};
  return runBothEngines(*M, What, Opts);
}

/// A trap-parity check: the program must trap identically on both
/// engines, with a populated "(in <fn>:<block>)" fault context.
void expectTrapParity(const std::string &Source, const std::string &What,
                      const std::string &MessagePiece,
                      ExecOptions Opts = {}) {
  ExecResult R = compileAndRunBoth(Source, What, Opts);
  EXPECT_FALSE(R.Ok) << What;
  EXPECT_NE(R.Error.find(MessagePiece), std::string::npos)
      << What << ": got '" << R.Error << "'";
  EXPECT_NE(R.Error.find("(in "), std::string::npos)
      << What << ": trap lost its fault context: '" << R.Error << "'";
  EXPECT_FALSE(R.FaultFunction.empty()) << What;
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden step counts + engine parity over the fig6 workload mix
//===----------------------------------------------------------------------===//

namespace {

struct GoldenSteps {
  const char *Name;
  uint64_t Steps;
};

// Pinned dynamic step counts of the O2 baselines (identical under both
// engines and with superinstructions on or off — fused superinstructions
// charge their constituent steps). Regenerate with bench_vm_engines if a
// deliberate frontend/optimizer change shifts the baselines.
const GoldenSteps Fig6Golden[] = {
    {"400.perlbench", 739222},   {"401.bzip2", 311069},
    {"403.gcc", 169941},         {"429.mcf", 149277},
    {"433.milc", 214031},        {"444.namd", 358605},
    {"445.gobmk", 270375},       {"447.dealll", 251094},
    {"450.soplex", 46147195},    {"453.povray", 1014711},
    {"456.hmmer", 185928},       {"458.sjeng", 547598},
    {"462.libquantum", 201147},  {"464.h264ref", 191081},
    {"470.lbm", 50492},          {"471.omnetpp", 4764588},
    {"473.astar", 824620},       {"482.sphinx3", 357332},
    {"483.xalancbmk", 3095232},  {"500.perlbench_r", 281664},
    {"502.gcc_r", 217380},       {"505.mcf_r", 528041},
    {"508.namd_r", 232844},      {"510.parest_r", 5198542},
    {"511.povray_r", 3537016},   {"519.lbm_r", 111370},
    {"520.omnetpp_r", 1389184},  {"523.xalancbmk_r", 988844},
    {"525.x264_r", 106797},      {"526.blender_r", 398204},
    {"531.deepsjeng_r", 284006}, {"538.imagick_r", 221751},
    {"541.leela_r", 50706906},   {"544.nab_r", 162557},
    {"557.xz_r", 504068},        {"600.perlbench_s", 650633},
    {"602.gcc_s", 324460},       {"605.mcf_s", 249189},
    {"619.lbm_s", 136081},       {"620.omnetpp_s", 21296030},
    {"623.xalancbmk_s", 848727}, {"625.x264_s", 180056},
    {"631.deepsjeng_s", 523802}, {"638.imagick_s", 276354},
    {"641.leela_s", 2020935},    {"644.nab_s", 115641},
    {"657.xz_s", 145039},
};

uint64_t goldenStepsFor(const std::string &Name, bool &Found) {
  for (const GoldenSteps &G : Fig6Golden)
    if (Name == G.Name) {
      Found = true;
      return G.Steps;
    }
  Found = false;
  return 0;
}

std::vector<Workload> fig6Workloads() {
  std::vector<Workload> Suite = specCpu2006Suite();
  std::vector<Workload> S17 = specCpu2017Suite();
  Suite.insert(Suite.end(), std::make_move_iterator(S17.begin()),
               std::make_move_iterator(S17.end()));
  return Suite;
}

} // namespace

// Precompiled engine against the pinned table, with superinstructions on
// AND off: fusion must never change Steps (superinstructions report their
// constituent counts), and the golden numbers catch silent accounting
// drift the A/B comparison alone cannot (both engines drifting together).
TEST(VMEngine, GoldenFig6StepCounts) {
  std::vector<Workload> Suite = fig6Workloads();
  size_t Checked = 0;
  for (const Workload &W : Suite) {
    Context Ctx;
    std::string Error;
    auto M = compileMiniC(W.Source, Ctx, W.Name, Error);
    ASSERT_TRUE(M) << W.Name << ": " << Error;
    optimizeModule(*M, OptLevel::O2);

    BytecodeModule Fused, Plain;
    precompileModule(*M, Fused);
    PrecompileOptions NoSuper;
    NoSuper.Superinstructions = false;
    precompileModule(*M, Plain, NoSuper);
    // Fusion must actually engage somewhere in a suite this large, or the
    // superinstruction path is dead code and this test proves nothing.
    EXPECT_LE(Fused.CodeBytes, Plain.CodeBytes) << W.Name;

    ExecResult RFused = runPrecompiled(Fused);
    ExecResult RPlain = runPrecompiled(Plain);
    expectSameObservation(RFused, RPlain, W.Name + " superinstructions");
    ASSERT_TRUE(RFused.Ok) << W.Name << ": " << RFused.Error;

    bool Found = false;
    uint64_t Golden = goldenStepsFor(W.Name, Found);
    ASSERT_TRUE(Found) << W.Name << " missing from the golden table — "
                       << "regenerate it with bench_vm_engines";
    EXPECT_EQ(RFused.Steps, Golden) << W.Name;
    ++Checked;
  }
  EXPECT_EQ(Checked, sizeof(Fig6Golden) / sizeof(Fig6Golden[0]));
}

// Full observational A/B of both engines over every fig6 baseline. The
// reference engine is ~8x slower, which is exactly why this runs the
// baselines once and the fuzz tier handles the adversarial search.
TEST(VMEngine, Fig6ReferenceParity) {
  for (const Workload &W : fig6Workloads()) {
    Context Ctx;
    std::string Error;
    auto M = compileMiniC(W.Source, Ctx, W.Name, Error);
    ASSERT_TRUE(M) << W.Name << ": " << Error;
    optimizeModule(*M, OptLevel::O2);
    ExecResult R = runBothEngines(*M, W.Name);
    EXPECT_TRUE(R.Ok) << W.Name << ": " << R.Error;
  }
}

// The three superinstruction shapes (cmp+br, load+arith+store, direct
// call with <=4 args), concentrated in one small program so a fusion
// accounting bug cannot hide behind suite-level averaging.
TEST(VMEngine, SuperinstructionStepParity) {
  const char *Source =
      "int acc = 0;\n"
      "int add3(int a, int b, int c) { return a + b + c; }\n"
      "int main() {\n"
      "  int i = 0;\n"
      "  while (i < 100) {\n"        // cmp+br every iteration
      "    acc = acc + i;\n"         // load+add+store on a global
      "    acc = add3(i, acc, 2);\n" // direct call, 3 args
      "    i++;\n"
      "  }\n"
      "  printf(\"%d\\n\", acc);\n"
      "  return acc & 127;\n"
      "}\n";
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(Source, Ctx, "superinst", Error);
  ASSERT_TRUE(M) << Error;
  optimizeModule(*M, OptLevel::O2);

  BytecodeModule Fused, Plain;
  precompileModule(*M, Fused);
  PrecompileOptions NoSuper;
  NoSuper.Superinstructions = false;
  precompileModule(*M, Plain, NoSuper);
  ASSERT_LT(Fused.CodeBytes, Plain.CodeBytes)
      << "no superinstruction fused in a program built from the fusable "
         "patterns";

  ExecResult RFused = runPrecompiled(Fused);
  ExecResult RPlain = runPrecompiled(Plain);
  expectSameObservation(RPlain, RFused, "superinst fused-vs-plain");

  ExecOptions RefOpts;
  RefOpts.Engine = VMEngine::Reference;
  expectSameObservation(runModule(*M, RefOpts), RFused,
                        "superinst reference-vs-fused");
}

//===----------------------------------------------------------------------===//
// Trap parity: every trap kind, byte-identical message + fault context
//===----------------------------------------------------------------------===//

TEST(VMEngine, TrapParityDivByZero) {
  expectTrapParity("int main() { int z = 0; return 5 / z; }", "div-zero",
                   "division by zero");
}

TEST(VMEngine, TrapParityRemByZero) {
  expectTrapParity("int main() { int z = 0; return 5 % z; }", "rem-zero",
                   "division by zero");
}

TEST(VMEngine, TrapParityDivOverflow) {
  expectTrapParity("int main() {\n"
                   "  long a = -9223372036854775807L - 1L;\n"
                   "  long b = -1L;\n"
                   "  return (int)(a / b);\n"
                   "}",
                   "div-overflow", "overflow");
}

TEST(VMEngine, TrapParityLoadOutOfBounds) {
  expectTrapParity("int main() { int* p = (int*)0L; return *p; }",
                   "load-oob", "invalid load of");
}

TEST(VMEngine, TrapParityStoreOutOfBounds) {
  expectTrapParity("int main() { int* p = (int*)7L; *p = 3; return 0; }",
                   "store-oob", "invalid store of");
}

TEST(VMEngine, TrapParityBadIndirectCall) {
  // A function pointer forged from an integer (via a data-pointer cast —
  // the grammar has no function-pointer casts, assignment coerces): far
  // outside the VM's function address space, so the call site itself must
  // trap — with the same "indirect call to invalid address" text on both
  // engines.
  expectTrapParity("int f(int x) { return x; }\n"
                   "int main() {\n"
                   "  int (*fp)(int) = f;\n"
                   "  fp = (int*)12345L;\n"
                   "  return fp(1);\n"
                   "}",
                   "bad-indirect", "indirect call to invalid address");
}

TEST(VMEngine, TrapParityStepLimit) {
  // A budget mid-loop: with cmp+br fused, the precompiled engine must
  // still stop after exactly the same charge as the reference engine.
  ExecOptions Opts;
  Opts.MaxSteps = 1000;
  expectTrapParity("int main() {\n"
                   "  int i = 0; int s = 0;\n"
                   "  while (i < 1000000) { s += i; i++; }\n"
                   "  return s;\n"
                   "}",
                   "step-limit", "step limit exceeded", Opts);
}

TEST(VMEngine, TrapParityCallDepth) {
  ExecOptions Opts;
  Opts.MaxSteps = 100'000'000;
  expectTrapParity("int down(int n) { return down(n + 1); }\n"
                   "int main() { return down(0); }",
                   "call-depth", "call depth", Opts);
}

//===----------------------------------------------------------------------===//
// Cross-VM sweep: 25 seeds × every obfuscation mode
//===----------------------------------------------------------------------===//

namespace {

ProgramSpec sweepSpec(uint64_t Seed) {
  ProgramSpec S;
  S.Name = "xvm-" + std::to_string(Seed);
  S.Seed = Seed;
  S.NumFunctions = 10 + Seed % 17;
  S.FloatRatio = (Seed % 5) * 0.12;
  S.RecursionRatio = (Seed % 3) * 0.1;
  S.UseIndirectCalls = Seed % 2 == 0;
  S.UseExceptions = Seed % 3 == 0;
  S.UseSetjmp = Seed % 5 == 0;
  S.MainIterations = 6;
  return S;
}

} // namespace

// The acceptance sweep: 25 generated programs × every ObfuscationMode,
// obfuscated output verified and executed under BOTH engines with full
// observational equality (Steps and Cost included). This is the fixed
// grid backing the fuzz tier's randomized cross-vm search.
TEST(VMEngine, CrossVMSweep25SeedsAllModes) {
  for (uint64_t Seed = 900; Seed != 925; ++Seed) {
    ProgramSpec S = sweepSpec(Seed);
    std::string Source = generateMiniCProgram(S);

    Context BaseCtx;
    std::string Error;
    auto Base = compileMiniC(Source, BaseCtx, S.Name, Error);
    ASSERT_TRUE(Base) << "seed " << Seed << ": " << Error;
    optimizeModule(*Base, OptLevel::O2);
    ExecResult Ref =
        runBothEngines(*Base, "seed " + std::to_string(Seed) + " baseline");
    ASSERT_TRUE(Ref.Ok) << "seed " << Seed << ": " << Ref.Error;

    for (ObfuscationMode Mode : allObfuscationModes()) {
      const std::string What = "seed " + std::to_string(Seed) + " mode " +
                               obfuscationModeName(Mode);
      Context Ctx;
      auto Obf = compileMiniC(Source, Ctx, S.Name, Error);
      ASSERT_TRUE(Obf) << What << ": " << Error;
      KhaosOptions Opts;
      Opts.Seed = Seed * 131 + 7;
      obfuscateModule(*Obf, Mode, Opts);
      std::vector<std::string> Problems = verifyModule(*Obf);
      ASSERT_TRUE(Problems.empty()) << What << ": " << Problems.front();

      ExecResult Got = runBothEngines(*Obf, What);
      ASSERT_TRUE(Got.Ok) << What << ": " << Got.Error;
      // And against the baseline: same semantics, not just same engines.
      EXPECT_EQ(Got.ExitValue, Ref.ExitValue) << What;
      EXPECT_EQ(Got.Stdout, Ref.Stdout) << What;
    }
  }
}
