//===- tests/MiniCConformanceTest.cpp - MiniC language semantics -------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// C-semantics conformance for the MiniC front end + VM: operator
/// precedence and associativity, integer conversions and wrapping,
/// pointer aliasing, short-circuit order, switch fall-through, and the
/// exceptional control flows. Every expectation is the value a conforming
/// C compiler produces.
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "ir/Module.h"
#include "transform/Pass.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace khaos;

namespace {

/// main()'s exit value for \p Body. It runs on both engines, unoptimized
/// and at O2, and all four runs must agree.
int64_t evalMain(const std::string &Body) {
  int64_t Exit = INT64_MIN;
  for (OptLevel Level : {OptLevel::O0, OptLevel::O2}) {
    Context Ctx;
    std::string Error;
    auto M = compileMiniC("int main() {\n" + Body + "\n}", Ctx, "t", Error);
    EXPECT_TRUE(M) << Error << "\nbody:\n" << Body;
    if (!M)
      return INT64_MIN;
    optimizeModule(*M, Level);
    for (VMEngine Engine : {VMEngine::Reference, VMEngine::Precompiled}) {
      ExecOptions Opts;
      Opts.Engine = Engine;
      ExecResult R = runModule(*M, Opts);
      EXPECT_TRUE(R.Ok) << R.Error;
      if (!R.Ok)
        return INT64_MIN;
      if (Level == OptLevel::O0 && Engine == VMEngine::Reference)
        Exit = R.ExitValue;
      EXPECT_EQ(R.ExitValue, Exit)
          << "O" << static_cast<int>(Level) << " " << vmEngineName(Engine)
          << "\nbody:\n" << Body;
    }
  }
  return Exit;
}

// --- Precedence and associativity ---------------------------------------

TEST(MiniCConformance, MulBindsTighterThanAdd) {
  EXPECT_EQ(evalMain("return 2 + 3 * 4;"), 14);
}

TEST(MiniCConformance, ShiftBindsLooserThanAdd) {
  EXPECT_EQ(evalMain("return 1 << 2 + 1;"), 8); // 1 << 3.
}

TEST(MiniCConformance, ComparisonBindsLooserThanShift) {
  EXPECT_EQ(evalMain("return (4 >> 1 > 1);"), 1); // (4>>1) > 1 -> 2>1.
}

TEST(MiniCConformance, BitwiseAndLooserThanEquality) {
  // C classic: a & b == c parses as a & (b == c).
  EXPECT_EQ(evalMain("int a = 3; return a & 2 == 2;"), 1);
}

TEST(MiniCConformance, TernaryRightAssociative) {
  EXPECT_EQ(evalMain("int x = 2; return x == 1 ? 10 : x == 2 ? 20 : 30;"),
            20);
}

TEST(MiniCConformance, AssignmentRightAssociative) {
  EXPECT_EQ(evalMain("int a; int b; a = b = 7; return a + b;"), 14);
}

TEST(MiniCConformance, UnaryMinusAndSubtraction) {
  EXPECT_EQ(evalMain("int a = 5; return -a - -3;"), -2);
}

// --- Integer semantics ----------------------------------------------------

TEST(MiniCConformance, Int32WrapsOnOverflow) {
  // 2^31-1 + 1 wraps to -2^31 in our two's-complement model.
  EXPECT_EQ(evalMain("int a = 2147483647; a = a + 1; return a < 0;"), 1);
}

TEST(MiniCConformance, CharIsSignedAndNarrows) {
  EXPECT_EQ(evalMain("char c = (char)200; return c < 0;"), 1);
  EXPECT_EQ(evalMain("char c = (char)511; return c;"), -1);
}

TEST(MiniCConformance, LongArithmeticIs64Bit) {
  EXPECT_EQ(evalMain("long a = 2147483647L; a = a + 1; return a > 0;"), 1);
  // int64 overflow wraps (two's complement), as int32 overflow does.
  EXPECT_EQ(evalMain("long a = 9223372036854775807L; a = a + 1;"
                     " return a < 0;"),
            1);
  EXPECT_EQ(evalMain("long a = 3037000500L; a = a * a;"
                     " return (int)(a & 255L);"),
            144);
}

TEST(MiniCConformance, DivisionTruncatesTowardZero) {
  EXPECT_EQ(evalMain("return -7 / 2;"), -3);
  EXPECT_EQ(evalMain("return -7 % 2;"), -1);
}

TEST(MiniCConformance, MixedIntLongPromotes) {
  EXPECT_EQ(evalMain("int a = 1000000; long b = 5000L;"
                     " long c = (long)a * b; return c > 4000000000L;"),
            1);
}

TEST(MiniCConformance, FloatToIntTruncates) {
  EXPECT_EQ(evalMain("double d = 3.99; return (int)d;"), 3);
  EXPECT_EQ(evalMain("double d = -3.99; return (int)d;"), -3);
  // NaN and out-of-range values convert to INT64_MIN, then narrow.
  EXPECT_EQ(evalMain("double d = 1e30; return (int)d;"), 0);
  EXPECT_EQ(evalMain("double z = 0.0; long v = (long)(z / z);"
                     " return v < 0;"),
            1);
}

// --- Short circuit --------------------------------------------------------

TEST(MiniCConformance, AndSkipsRHSOnFalse) {
  EXPECT_EQ(evalMain("int z = 0; int r = (z != 0) && (5 / z > 0);"
                     " return r;"),
            0); // Division by zero must not execute.
}

TEST(MiniCConformance, OrSkipsRHSOnTrue) {
  EXPECT_EQ(evalMain("int z = 0; return (1 == 1) || (5 / z > 0);"), 1);
}

TEST(MiniCConformance, LogicalResultIsZeroOrOne) {
  EXPECT_EQ(evalMain("return (7 && 9) + (0 || 3);"), 2);
}

// --- Pointers and arrays ----------------------------------------------------

TEST(MiniCConformance, ArraysDecayInCalls) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int first(int* p) { return p[0]; }\n"
                        "int main() { int a[4]; a[0] = 9; "
                        "return first(a); }",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(runModule(*M).ExitValue, 9);
}

TEST(MiniCConformance, PointerAliasingVisible) {
  EXPECT_EQ(evalMain("int x = 1; int* p = &x; int* q = &x;"
                     " *p = 5; return *q;"),
            5);
}

TEST(MiniCConformance, PointerDifferenceInElements) {
  EXPECT_EQ(evalMain("int a[8]; int* p = &a[6]; int* q = &a[2];"
                     " return (int)(p - q);"),
            4);
}

TEST(MiniCConformance, PointerComparison) {
  EXPECT_EQ(evalMain("int a[4]; return &a[3] > &a[1];"), 1);
  // The address offset wraps: 2^62 longs span 2^65 bytes, i.e. zero.
  EXPECT_EQ(evalMain("long a[4]; long *p = a;"
                     " long *q = p + 4611686018427387904L; return q == p;"),
            1);
}

TEST(MiniCConformance, IncrementThroughPointer) {
  EXPECT_EQ(evalMain("int x = 40; int* p = &x; (*p)++; ++*p;"
                     " return x;"),
            42);
}

TEST(MiniCConformance, PostIncrementYieldsOldValue) {
  EXPECT_EQ(evalMain("int i = 5; int j = i++; return j * 10 + i;"), 56);
}

TEST(MiniCConformance, PreIncrementYieldsNewValue) {
  EXPECT_EQ(evalMain("int i = 5; int j = ++i; return j * 10 + i;"), 66);
}

// --- Control flow -----------------------------------------------------------

TEST(MiniCConformance, SwitchDefaultWhenNoCaseMatches) {
  EXPECT_EQ(evalMain("switch (9) { case 1: return 1; default: return 42; "
                     "case 2: return 2; }"),
            42);
}

TEST(MiniCConformance, SwitchNegativeCaseLabels) {
  EXPECT_EQ(evalMain("int x = -3; switch (x) { case -3: return 7; "
                     "default: return 0; }"),
            7);
}

TEST(MiniCConformance, BreakLeavesInnermostLoopOnly) {
  EXPECT_EQ(evalMain("int n = 0;"
                     "for (int i = 0; i < 3; i++) {"
                     "  for (int j = 0; j < 10; j++) { if (j == 2) break; "
                     "n++; }"
                     "}"
                     "return n;"),
            6);
}

TEST(MiniCConformance, ContinueSkipsRestOfBody) {
  EXPECT_EQ(evalMain("int s = 0;"
                     "for (int i = 0; i < 5; i++) { if (i % 2 == 0) "
                     "continue; s += i; }"
                     "return s;"),
            4); // 1 + 3.
}

TEST(MiniCConformance, DoWhileRunsBodyAtLeastOnce) {
  EXPECT_EQ(evalMain("int n = 0; do { n++; } while (n < 0); return n;"), 1);
}

// --- Exceptions ---------------------------------------------------------------

TEST(MiniCConformance, ThrowSkipsRestOfTryBlock) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int main() {\n"
                        "  int s = 0;\n"
                        "  try { s += 1; throw 5; s += 100; }\n"
                        "  catch (int e) { s += e; }\n"
                        "  return s;\n"
                        "}",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(runModule(*M).ExitValue, 6);
}

TEST(MiniCConformance, ExceptionUnwindsThroughIntermediateFrames) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(
      "void inner() { throw 11; }\n"
      "void middle() { inner(); }\n"
      "int main() { try { middle(); } catch (int e) { return e; } "
      "return 0; }",
      Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(runModule(*M).ExitValue, 11);
}

TEST(MiniCConformance, CatchScopeEndsAfterHandler) {
  Context Ctx;
  std::string Error;
  // `e` must not leak out of the handler; a second try reuses the name.
  auto M = compileMiniC("int main() {\n"
                        "  int s = 0;\n"
                        "  try { throw 1; } catch (int e) { s += e; }\n"
                        "  try { throw 2; } catch (int e) { s += e; }\n"
                        "  return s;\n"
                        "}",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(runModule(*M).ExitValue, 3);
}

TEST(MiniCConformance, SetjmpReturnsLongjmpValue) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("long jb[8];\n"
                        "int main() {\n"
                        "  int r = setjmp(jb);\n"
                        "  if (r == 0) { longjmp(jb, 42); return 1; }\n"
                        "  return r;\n"
                        "}",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(runModule(*M).ExitValue, 42);
}

TEST(MiniCConformance, LongjmpZeroBecomesOne) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("long jb[8];\n"
                        "int main() {\n"
                        "  int r = setjmp(jb);\n"
                        "  if (r == 0) longjmp(jb, 0);\n"
                        "  return r;\n"
                        "}",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(runModule(*M).ExitValue, 1); // C: longjmp(buf, 0) delivers 1.
}

// --- printf formatting ----------------------------------------------------------

TEST(MiniCConformance, PrintfWidthAndMultipleArgs) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(
      "int main() { printf(\"%3d|%-2d|%x\\n\", 5, 7, 255); return 0; }",
      Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(runModule(*M).Stdout, "  5|7 |ff\n");
}

TEST(MiniCConformance, PrintfPercentEscape) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int main() { printf(\"100%%\\n\"); return 0; }",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(runModule(*M).Stdout, "100%\n");
}

// --- Global state across calls ------------------------------------------------

TEST(MiniCConformance, GlobalArrayPersistsAcrossCalls) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC("int memo[16];\n"
                        "int fib(int n) {\n"
                        "  if (n < 2) return n;\n"
                        "  if (memo[n & 15] != 0) return memo[n & 15];\n"
                        "  memo[n & 15] = fib(n - 1) + fib(n - 2);\n"
                        "  return memo[n & 15];\n"
                        "}\n"
                        "int main() { return fib(15) & 1023; }",
                        Ctx, "t", Error);
  ASSERT_TRUE(M) << Error;
  EXPECT_EQ(runModule(*M).ExitValue, 610 & 1023);
}

} // namespace
