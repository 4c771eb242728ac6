//===- tests/FrontendVMTest.cpp - MiniC → KIR → VM integration -------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "vm/CostModel.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <bit>

using namespace khaos;

namespace {

/// Compiles and runs a MiniC program; fails the test on any error.
ExecResult compileAndRun(const std::string &Source) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(Source, Ctx, "test", Error);
  EXPECT_TRUE(M) << "compile error: " << Error;
  if (!M)
    return {};
  ExecResult R = runModule(*M);
  EXPECT_TRUE(R.Ok) << "run error: " << R.Error;
  return R;
}

TEST(FrontendVM, ReturnsConstant) {
  ExecResult R = compileAndRun("int main() { return 42; }");
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(FrontendVM, Arithmetic) {
  ExecResult R = compileAndRun(
      "int main() { int a = 6; int b = 7; return a * b + 1 - 1; }");
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(FrontendVM, DivisionAndRemainder) {
  ExecResult R = compileAndRun(
      "int main() { int a = 17; return (a / 5) * 10 + a % 5; }");
  EXPECT_EQ(R.ExitValue, 32);
}

TEST(FrontendVM, WhileLoopSum) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  int i = 0; int s = 0;\n"
                               "  while (i < 10) { s += i; i++; }\n"
                               "  return s;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 45);
}

TEST(FrontendVM, ForLoopFactorial) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  int f = 1;\n"
                               "  for (int i = 1; i <= 6; i = i + 1) f *= i;\n"
                               "  return f;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 720);
}

TEST(FrontendVM, DoWhile) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  int i = 0; int s = 0;\n"
                               "  do { s += 2; i++; } while (i < 3);\n"
                               "  return s;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 6);
}

TEST(FrontendVM, Recursion) {
  ExecResult R = compileAndRun("int fib(int n) {\n"
                               "  if (n < 2) return n;\n"
                               "  return fib(n - 1) + fib(n - 2);\n"
                               "}\n"
                               "int main() { return fib(12); }");
  EXPECT_EQ(R.ExitValue, 144);
}

TEST(FrontendVM, GlobalVariables) {
  ExecResult R = compileAndRun("int counter = 5;\n"
                               "void bump(int by) { counter += by; }\n"
                               "int main() { bump(3); bump(4); return counter; }");
  EXPECT_EQ(R.ExitValue, 12);
}

TEST(FrontendVM, GlobalArrayInit) {
  ExecResult R = compileAndRun(
      "int table[4] = {10, 20, 30, 40};\n"
      "int main() { return table[0] + table[3]; }");
  EXPECT_EQ(R.ExitValue, 50);
}

TEST(FrontendVM, LocalArrays) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  int a[8];\n"
                               "  for (int i = 0; i < 8; i++) a[i] = i * i;\n"
                               "  int s = 0;\n"
                               "  for (int i = 0; i < 8; i++) s += a[i];\n"
                               "  return s;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 140);
}

TEST(FrontendVM, PointerDerefAndAddrOf) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  int x = 10;\n"
                               "  int* p = &x;\n"
                               "  *p = *p + 32;\n"
                               "  return x;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(FrontendVM, PointerArithmetic) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  int a[4];\n"
                               "  a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;\n"
                               "  int* p = a;\n"
                               "  p = p + 2;\n"
                               "  return *p + p[1];\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 7);
}

TEST(FrontendVM, FunctionPointers) {
  ExecResult R = compileAndRun(
      "int add(int a, int b) { return a + b; }\n"
      "int mul(int a, int b) { return a * b; }\n"
      "int apply(int (*op)(int, int), int x, int y) { return op(x, y); }\n"
      "int main() { return apply(add, 3, 4) + apply(mul, 3, 4); }");
  EXPECT_EQ(R.ExitValue, 19);
}

TEST(FrontendVM, GlobalFunctionPointer) {
  ExecResult R = compileAndRun("int twice(int x) { return 2 * x; }\n"
                               "int (*op)(int) = twice;\n"
                               "int main() { return op(21); }");
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(FrontendVM, Printf) {
  ExecResult R = compileAndRun(
      "int main() { printf(\"x=%d s=%s c=%c\\n\", 7, \"hi\", 'A');"
      " return 0; }");
  EXPECT_EQ(R.Stdout, "x=7 s=hi c=A\n");
}

TEST(FrontendVM, PrintfFloat) {
  ExecResult R = compileAndRun(
      "int main() { double d = 2.5; printf(\"%g\", d * 2.0); return 0; }");
  EXPECT_EQ(R.Stdout, "5");
}

TEST(FrontendVM, SwitchStatement) {
  ExecResult R = compileAndRun("int classify(int x) {\n"
                               "  switch (x) {\n"
                               "    case 1: return 10;\n"
                               "    case 2: return 20;\n"
                               "    default: return -1;\n"
                               "  }\n"
                               "}\n"
                               "int main() {\n"
                               "  return classify(1) + classify(2) + classify(9);\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 29);
}

TEST(FrontendVM, SwitchFallthrough) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  int s = 0;\n"
                               "  switch (2) {\n"
                               "    case 1: s += 1;\n"
                               "    case 2: s += 2;\n"
                               "    case 3: s += 4; break;\n"
                               "    case 4: s += 8;\n"
                               "  }\n"
                               "  return s;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 6);
}

TEST(FrontendVM, TernaryAndLogical) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  int a = 5; int b = 0;\n"
                               "  int c = (a > 3 && !b) ? 30 : 7;\n"
                               "  int d = (b || a == 5) ? 12 : 90;\n"
                               "  return c + d;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(FrontendVM, ShortCircuitSideEffects) {
  ExecResult R = compileAndRun("int calls = 0;\n"
                               "int bump() { calls++; return 1; }\n"
                               "int main() {\n"
                               "  int x = 0 && bump();\n"
                               "  int y = 1 || bump();\n"
                               "  return calls * 10 + x + y;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 1);
}

TEST(FrontendVM, FloatArithmetic) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  float f = 1.5f;\n"
                               "  double d = 2.25;\n"
                               "  double r = f * 2.0 + d;\n"
                               "  return (int)r;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 5);
}

TEST(FrontendVM, CharOps) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  char c = 'a';\n"
                               "  c = c + 1;\n"
                               "  return c == 'b';\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 1);
}

TEST(FrontendVM, MallocAndUse) {
  ExecResult R = compileAndRun("int main() {\n"
                               "  int* p = (int*)malloc(16L);\n"
                               "  p[0] = 11; p[1] = 31;\n"
                               "  int r = p[0] + p[1];\n"
                               "  free((void*)p);\n"
                               "  return r;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(FrontendVM, TryCatchThrow) {
  ExecResult R = compileAndRun("int risky(int x) {\n"
                               "  if (x > 5) throw x;\n"
                               "  return x;\n"
                               "}\n"
                               "int main() {\n"
                               "  int s = 0;\n"
                               "  try { s += risky(3); s += risky(9); s += 100; }\n"
                               "  catch (int e) { s += e; }\n"
                               "  return s;\n"
                               "}");
  EXPECT_EQ(R.ExitValue, 12);
}

TEST(FrontendVM, NestedTryCatch) {
  ExecResult R = compileAndRun(
      "void boom(int v) { throw v; }\n"
      "int main() {\n"
      "  int s = 0;\n"
      "  try {\n"
      "    try { boom(7); } catch (int a) { s += a; boom(30); }\n"
      "  } catch (int b) { s += b + 5; }\n"
      "  return s;\n"
      "}");
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(FrontendVM, UncaughtExceptionPropagates) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("void boom() { throw 3; }\n"
                        "int main() { boom(); return 0; }",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  ExecResult R = runModule(*M);
  EXPECT_FALSE(R.Ok);
}

TEST(FrontendVM, SetjmpLongjmp) {
  ExecResult R = compileAndRun(
      "long jb[8];\n"
      "void fail_deep(int depth) {\n"
      "  if (depth == 0) longjmp(jb, 7);\n"
      "  fail_deep(depth - 1);\n"
      "}\n"
      "int main() {\n"
      "  int r = setjmp(jb);\n"
      "  if (r == 0) { fail_deep(4); return 99; }\n"
      "  return r;\n"
      "}");
  EXPECT_EQ(R.ExitValue, 7);
}

TEST(FrontendVM, DivByZeroTraps) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int main() { int z = 0; return 5 / z; }", Ctx, "t",
                        Error);
  ASSERT_TRUE(M) << Error;
  ExecResult R = runModule(*M);
  EXPECT_FALSE(R.Ok);
}

TEST(FrontendVM, NullDerefTraps) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int main() { int* p = (int*)0L; return *p; }", Ctx,
                        "t", Error);
  ASSERT_TRUE(M) << Error;
  ExecResult R = runModule(*M);
  EXPECT_FALSE(R.Ok);
}

TEST(FrontendVM, LongArithmetic64Bit) {
  ExecResult R = compileAndRun(
      "int main() {\n"
      "  long big = 1L << 40;\n"
      "  long r = big / (1L << 35);\n"
      "  return (int)r;\n"
      "}");
  EXPECT_EQ(R.ExitValue, 32);
}

TEST(FrontendVM, CostAccumulates) {
  ExecResult A = compileAndRun("int main() { return 0; }");
  ExecResult B = compileAndRun("int main() {\n"
                               "  int s = 0;\n"
                               "  for (int i = 0; i < 1000; i++) s += i;\n"
                               "  return s & 127;\n"
                               "}");
  EXPECT_GT(B.Cost, A.Cost + 1000);
}

//===----------------------------------------------------------------------===//
// The overhead rule every overhead figure reads a run pair through
//===----------------------------------------------------------------------===//

ExecResult finishedRun(uint64_t Cost, const std::string &Stdout,
                       int64_t ExitValue) {
  ExecResult R;
  R.Ok = true;
  R.Stdout = Stdout;
  R.ExitValue = ExitValue;
  R.Steps = Cost;
  R.Cost = Cost;
  return R;
}

TEST(OverheadRule, RefusesPairsThatBehaveDifferently) {
  const ExecResult Base = finishedRun(1000, "42\n", 7);
  ExecResult OtherExit = finishedRun(1100, "42\n", 8);
  ExecResult OtherStdout = finishedRun(1100, "43\n", 7);
  ExecResult Trapped = finishedRun(1100, "42\n", 7);
  Trapped.Ok = false;
  Trapped.Error = "step limit exceeded";
  for (const ExecResult *Obf : {&OtherExit, &OtherStdout, &Trapped}) {
    double Out = -1.0;
    EXPECT_FALSE(runOverheadPercent(Base, *Obf, Out)) << Obf->Stdout;
    EXPECT_EQ(Out, -1.0) << "a refused pair must leave Out untouched";
  }
  // A trapped baseline is refused as well.
  double Out = -1.0;
  EXPECT_FALSE(runOverheadPercent(Trapped, Base, Out));
  EXPECT_EQ(Out, -1.0);
}

TEST(OverheadRule, RefusesZeroCostBaseline) {
  double Out = -1.0;
  EXPECT_FALSE(runOverheadPercent(finishedRun(0, "", 0),
                                  finishedRun(10, "", 0), Out));
  EXPECT_EQ(Out, -1.0);
}

TEST(OverheadRule, AcceptedPairIsTheFormulaBitForBit) {
  const uint64_t Pairs[][2] = {{1000, 1000},       {1000, 1250},
                               {3, 7},             {7, 3},
                               {1135483, 1209913}, {68679428, 99999989}};
  for (const auto &P : Pairs) {
    const double Base = static_cast<double>(P[0]);
    const double Obf = static_cast<double>(P[1]);
    const double Want = (Obf - Base) / Base * 100.0;
    double Got = 0.0;
    ASSERT_TRUE(runOverheadPercent(finishedRun(P[0], "ok\n", 3),
                                   finishedRun(P[1], "ok\n", 3), Got));
    EXPECT_EQ(std::bit_cast<uint64_t>(Got), std::bit_cast<uint64_t>(Want))
        << P[0] << " -> " << P[1];
    EXPECT_EQ(std::bit_cast<uint64_t>(costOverheadPercent(Obf, Base)),
              std::bit_cast<uint64_t>(Want));
  }
  // BinTuner scales a spilling build's cost, then applies the formula.
  const double Spilled = 1000.0 * CostModel::SpillFactor;
  EXPECT_EQ(costOverheadPercent(Spilled, 1000.0), 25.0);
}

TEST(FrontendVM, VerifierAcceptsGeneratedIR) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int helper(int a) { return a * 2; }\n"
                        "int main() { return helper(21); }",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_FALSE(printModule(*M).empty());
}

TEST(FrontendVM, ParseErrorReported) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int main( { return 0; }", Ctx, "t", Error);
  EXPECT_FALSE(M);
  EXPECT_FALSE(Error.empty());
}

TEST(FrontendVM, FPRemainderRejected) {
  // C has no % on floating operands, compound assignment included.
  for (const char *Body : {"double d = 5.5; return (int)(d % 2.0);",
                           "double d = 5.5; d %= 2.0; return (int)d;"}) {
    Context Ctx;
    std::string Error;
    auto M = compileMiniC(std::string("int main() { ") + Body + " }", Ctx,
                          "t", Error);
    EXPECT_FALSE(M) << Body;
    EXPECT_NE(Error.find("invalid FP operation"), std::string::npos)
        << Body << ": " << Error;
  }
}

TEST(FrontendVM, TypeErrorReported) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int main() { return undefined_var; }", Ctx, "t",
                        Error);
  EXPECT_FALSE(M);
  EXPECT_FALSE(Error.empty());
}

} // namespace
