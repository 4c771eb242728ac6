//===- tests/TransformTest.cpp - Optimizer correctness ----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer must preserve program behaviour at every level; these
/// tests run the same MiniC programs at O0..O3 and compare stdout + exit
/// value, then check specific passes do what they claim.
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/StringUtils.h"
#include "transform/Pass.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace khaos;

namespace {

struct Behaviour {
  int64_t Exit;
  std::string Stdout;
  uint64_t Cost;
};

Behaviour runAt(const std::string &Source, OptLevel Level) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(Source, Ctx, "t", Error);
  EXPECT_TRUE(M) << Error;
  if (!M)
    return {};
  optimizeModule(*M, Level);
  std::vector<std::string> Problems = verifyModule(*M);
  EXPECT_TRUE(Problems.empty())
      << "verifier after opt: " << Problems.front();
  ExecResult R = runModule(*M);
  EXPECT_TRUE(R.Ok) << R.Error;
  return {R.ExitValue, R.Stdout, R.Cost};
}

/// Checks behaviour equality across all optimization levels.
void expectSameBehaviourAcrossLevels(const std::string &Source) {
  Behaviour O0 = runAt(Source, OptLevel::O0);
  for (OptLevel L : {OptLevel::O1, OptLevel::O2, OptLevel::O3}) {
    Behaviour B = runAt(Source, L);
    EXPECT_EQ(B.Exit, O0.Exit) << "exit mismatch at O" << (int)L;
    EXPECT_EQ(B.Stdout, O0.Stdout) << "stdout mismatch at O" << (int)L;
  }
}

const char *LoopHeavy = R"(
int work(int n) {
  int acc = 0;
  for (int i = 0; i < n; i++) {
    int j = 0;
    while (j < 7) { acc += (i ^ j) & 15; j++; }
    if (acc > 100000) acc /= 3;
  }
  return acc;
}
int main() {
  printf("%d\n", work(50));
  return work(9) & 127;
}
)";

const char *RecursiveFP = R"(
int even(int n);
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int apply(int (*f)(int), int x) { return f(x); }
int main() {
  int a = apply(even, 10);
  int b = apply(odd, 7);
  printf("a=%d b=%d\n", a, b);
  return a * 2 + b;
}
)";

const char *FloatMix = R"(
double series(int n) {
  double s = 0.0;
  for (int i = 1; i <= n; i++) s += 1.0 / (double)i;
  return s;
}
int main() {
  double h = series(20);
  printf("%g\n", h);
  return (int)(h * 10.0);
}
)";

const char *ExceptionFlow = R"(
int parse(int x) {
  if (x < 0) throw 100 - x;
  return x * 2;
}
int main() {
  int total = 0;
  for (int i = -2; i <= 2; i++) {
    try { total += parse(i); }
    catch (int e) { total += e; }
  }
  printf("total=%d\n", total);
  return total & 255;
}
)";

const char *SetjmpFlow = R"(
long buf[8];
int depth_probe(int d) {
  if (d > 3) longjmp(buf, d);
  return depth_probe(d + 1);
}
int main() {
  int r = setjmp(buf);
  if (r == 0) return depth_probe(0);
  printf("jumped %d\n", r);
  return r;
}
)";

const char *ArraysAndStrings = R"(
int sum_digits(char* s) {
  int sum = 0;
  for (int i = 0; s[i] != '\0'; i++)
    if (s[i] >= '0' && s[i] <= '9') sum += s[i] - '0';
  return sum;
}
int main() {
  int t = sum_digits("a1b2c3d45");
  printf("%d\n", t);
  return t;
}
)";

TEST(TransformEquivalence, LoopHeavy) {
  expectSameBehaviourAcrossLevels(LoopHeavy);
}
TEST(TransformEquivalence, RecursiveFunctionPointers) {
  expectSameBehaviourAcrossLevels(RecursiveFP);
}
TEST(TransformEquivalence, FloatMix) {
  expectSameBehaviourAcrossLevels(FloatMix);
}
TEST(TransformEquivalence, ExceptionFlow) {
  expectSameBehaviourAcrossLevels(ExceptionFlow);
}
TEST(TransformEquivalence, SetjmpFlow) {
  expectSameBehaviourAcrossLevels(SetjmpFlow);
}

TEST(TransformPasses, ConstantFoldFoldsArithmetic) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int main() { return (3 + 4) * (10 - 4) / 2; }",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  size_t Before = M->getFunction("main")->instructionCount();
  PassManager PM;
  PM.add(createConstantFoldPass());
  PM.add(createDCEPass());
  PM.run(*M);
  size_t After = M->getFunction("main")->instructionCount();
  EXPECT_LT(After, Before);
  ExecResult R = runModule(*M);
  EXPECT_EQ(R.ExitValue, 21);
}

/// A module whose main prints ("%ld\n") one value per print() call, each
/// the result of one instruction over constant operands.
struct FoldProbe {
  Module M;
  IRBuilder B{M};
  Function *Printf = nullptr;
  Value *Fmt = nullptr;
  std::vector<CallInst *> Prints;

  explicit FoldProbe(Context &Ctx) : M(Ctx, "fold") {
    Type *I8 = Ctx.getInt8Type();
    Printf = M.createFunction(
        "printf", Ctx.getFunctionType(Ctx.getInt32Type(),
                                      {Ctx.getPointerType(I8)}, true));
    Printf->setIntrinsic(true);
    GlobalVariable *G = M.createGlobal("fmt", Ctx.getArrayType(I8, 5));
    G->setInitializer({M.getInt8('%'), M.getInt8('l'), M.getInt8('d'),
                       M.getInt8('\n'), M.getInt8(0)});
    Function *Main =
        M.createFunction("main", Ctx.getFunctionType(Ctx.getInt32Type(), {}));
    B.setInsertPoint(Main->addBlock("entry"));
    Fmt = B.createGEP(G, M.getInt64(0));
  }

  /// The distinct boundary constants of integer type \p Ty.
  std::vector<ConstantInt *> boundaries(Type *Ty) {
    std::vector<ConstantInt *> Out;
    for (int64_t V : {int64_t(0), int64_t(1), int64_t(-1), int64_t(INT8_MIN),
                      int64_t(INT8_MAX), int64_t(INT32_MIN),
                      int64_t(INT32_MAX), INT64_MIN, INT64_MAX}) {
      ConstantInt *C = M.getConstantInt(Ty, V);
      if (std::find(Out.begin(), Out.end(), C) == Out.end())
        Out.push_back(C);
    }
    return Out;
  }

  void print(Value *V) { Prints.push_back(B.createCall(Printf, {Fmt, V})); }
};

/// Runs \p P on both engines, then constant-folds it. Each printed value
/// must fold to the constant both engines print; a probe whose run traps
/// must trap alike on both and keep its instruction unfolded.
void expectFoldMatchesRun(FoldProbe &P) {
  P.B.createRet(P.M.getInt32(0));
  ASSERT_TRUE(verifyModule(P.M).empty());
  ExecOptions Opts;
  Opts.Engine = VMEngine::Reference;
  const ExecResult Ref = runModule(P.M, Opts);
  Opts.Engine = VMEngine::Precompiled;
  EXPECT_TRUE(runModule(P.M, Opts) == Ref) << "engines disagree";

  PassManager PM;
  PM.add(createConstantFoldPass());
  PM.run(P.M);
  std::string Folded;
  for (CallInst *C : P.Prints)
    if (auto *K = dyn_cast<ConstantInt>(C->getArg(1)))
      Folded += std::to_string(K->getValue()) + "\n";
  if (Ref.Ok) {
    EXPECT_EQ(Folded, Ref.Stdout);
  } else {
    EXPECT_NE(Ref.Error.find("integer division"), std::string::npos)
        << Ref.Error;
    EXPECT_EQ(Folded, "") << "folding erased a trap";
  }
}

TEST(TransformPasses, ConstantFoldAgreesWithBothEngines) {
  Context Ctx;
  Type *const Widths[] = {Ctx.getInt1Type(), Ctx.getInt8Type(),
                          Ctx.getInt32Type(), Ctx.getInt64Type()};
  for (Type *Ty : Widths) {
    for (unsigned Op = 0; Op <= static_cast<unsigned>(BinOp::LShr); ++Op) {
      const BinOp K = static_cast<BinOp>(Op);
      SCOPED_TRACE(formatStr("i%u %s", Ty->getIntegerBitWidth(),
                             BinaryInst::getOpName(K)));
      FoldProbe All(Ctx);
      for (ConstantInt *L : All.boundaries(Ty))
        for (ConstantInt *R : All.boundaries(Ty)) {
          const bool Traps =
              (K == BinOp::SDiv || K == BinOp::SRem) &&
              (R->isZero() ||
               (L->getValue() == INT64_MIN && R->getValue() == -1));
          if (!Traps) {
            All.print(All.B.createBinOp(K, L, R));
            continue;
          }
          // A trapping case runs alone, so it stops only its own module.
          FoldProbe One(Ctx);
          One.print(One.B.createBinOp(
              K, One.M.getConstantInt(Ty, L->getValue()),
              One.M.getConstantInt(Ty, R->getValue())));
          expectFoldMatchesRun(One);
        }
      expectFoldMatchesRun(All);
    }
    SCOPED_TRACE(formatStr("i%u cmp", Ty->getIntegerBitWidth()));
    FoldProbe Cmps(Ctx);
    for (unsigned P = 0; P <= static_cast<unsigned>(CmpPred::SGE); ++P)
      for (ConstantInt *L : Cmps.boundaries(Ty))
        for (ConstantInt *R : Cmps.boundaries(Ty))
          Cmps.print(Cmps.B.createCmp(static_cast<CmpPred>(P), L, R));
    expectFoldMatchesRun(Cmps);
  }
  // Trunc to every narrower width; SExt and ZExt to every wider one.
  FoldProbe Casts(Ctx);
  for (Type *Src : Widths)
    for (Type *Dst : Widths)
      for (ConstantInt *C : Casts.boundaries(Src)) {
        if (Src->getIntegerBitWidth() > Dst->getIntegerBitWidth()) {
          Casts.print(Casts.B.createCast(CastKind::Trunc, C, Dst));
        } else if (Src->getIntegerBitWidth() < Dst->getIntegerBitWidth()) {
          Casts.print(Casts.B.createCast(CastKind::SExt, C, Dst));
          Casts.print(Casts.B.createCast(CastKind::ZExt, C, Dst));
        }
      }
  expectFoldMatchesRun(Casts);
}

TEST(TransformPasses, DCERemovesDeadCode) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int main() {\n"
                        "  int unused1 = 11; int unused2 = 22;\n"
                        "  int live = 42;\n"
                        "  return live;\n"
                        "}",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  PassManager PM;
  PM.add(createLoadForwardingPass());
  PM.add(createDCEPass());
  PM.run(*M);
  // The unused allocas and their stores must be gone: expect at most the
  // live alloca chain plus the return.
  EXPECT_LE(M->getFunction("main")->instructionCount(), 5u);
  EXPECT_EQ(runModule(*M).ExitValue, 42);
}

TEST(TransformPasses, DCERemovesUnreferencedFunctions) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int never_called(int x) { return x + 1; }\n"
                        "int main() { return 7; }",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  ASSERT_TRUE(M->getFunction("never_called"));
  PassManager PM;
  PM.add(createDCEPass());
  PM.run(*M);
  EXPECT_FALSE(M->getFunction("never_called"));
}

TEST(TransformPasses, InlinerInlinesSmallFunctions) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int tiny(int x) { return x * 3; }\n"
                        "int main() { return tiny(14); }",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  PassManager PM;
  PM.add(createInlinerPass(48));
  PM.add(createDCEPass());
  PM.run(*M);
  // After inlining + DCE, tiny is unreferenced and removed; main has no
  // calls left.
  EXPECT_FALSE(M->getFunction("tiny"));
  bool HasCall = false;
  for (const auto &BB : M->getFunction("main")->blocks())
    for (const auto &I : BB->insts())
      if (I->getOpcode() == Opcode::Call)
        HasCall = true;
  EXPECT_FALSE(HasCall);
  EXPECT_EQ(runModule(*M).ExitValue, 42);
}

TEST(TransformPasses, InlinerSkipsEHFunctions) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int thrower(int x) { if (x) throw 1; return 2; }\n"
                        "int main() { return thrower(0); }",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  PassManager PM;
  PM.add(createInlinerPass(100));
  PM.run(*M);
  EXPECT_TRUE(M->getFunction("thrower")); // Still referenced: not inlined.
  EXPECT_EQ(runModule(*M).ExitValue, 2);
}

TEST(TransformPasses, SimplifyCFGFoldsConstantBranch) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int main() {\n"
                        "  if (1) return 42;\n"
                        "  return 7;\n"
                        "}",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  PassManager PM;
  PM.add(createConstantFoldPass());
  PM.add(createSimplifyCFGPass());
  PM.run(*M);
  EXPECT_EQ(M->getFunction("main")->size(), 1u);
  EXPECT_EQ(runModule(*M).ExitValue, 42);
}

TEST(TransformPasses, O2ReducesDynamicCost) {
  Behaviour O0 = runAt(LoopHeavy, OptLevel::O0);
  Behaviour O2 = runAt(LoopHeavy, OptLevel::O2);
  EXPECT_LT(O2.Cost, O0.Cost);
}

TEST(TransformPasses, PipelineKeepsVerifierGreen) {
  for (const char *Src :
       {LoopHeavy, RecursiveFP, FloatMix, ExceptionFlow, SetjmpFlow,
        ArraysAndStrings}) {
    Context Ctx;
    std::string Error;
    auto M = compileMiniC(Src, Ctx, "t", Error);
    ASSERT_TRUE(M) << Error;
    PassManager PM(/*VerifyEach=*/true);
    buildOptPipeline(PM, OptLevel::O3);
    PM.run(*M);
    EXPECT_TRUE(PM.getVerifyError().empty()) << PM.getVerifyError();
  }
}

TEST(TransformEquivalence, ArraysAndStrings) {
  expectSameBehaviourAcrossLevels(ArraysAndStrings);
}

} // namespace
