//===- tests/IRCoreTest.cpp - IR data structure unit tests -------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// White-box tests for the KIR core: type interning, use-lists, RAUW,
/// block surgery, cloning, the verifier's negative cases and VM edge
/// behaviour that the higher-level suites rely on implicitly.
///
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/StringUtils.h"
#include "transform/Cloning.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <functional>
#include <pthread.h>

using namespace khaos;

namespace {

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST(IRTypes, PrimitivesAreInterned) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt32Type(), Ctx.getInt32Type());
  EXPECT_NE(Ctx.getInt32Type(), Ctx.getInt64Type());
}

TEST(IRTypes, PointerAndArrayInterning) {
  Context Ctx;
  Type *I32 = Ctx.getInt32Type();
  EXPECT_EQ(Ctx.getPointerType(I32), I32->getPointerTo());
  EXPECT_EQ(Ctx.getArrayType(I32, 8), Ctx.getArrayType(I32, 8));
  EXPECT_NE(Ctx.getArrayType(I32, 8), Ctx.getArrayType(I32, 9));
}

TEST(IRTypes, StoreSizes) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt8Type()->getStoreSize(), 1u);
  EXPECT_EQ(Ctx.getInt32Type()->getStoreSize(), 4u);
  EXPECT_EQ(Ctx.getDoubleType()->getStoreSize(), 8u);
  EXPECT_EQ(Ctx.getPointerType(Ctx.getInt8Type())->getStoreSize(), 8u);
  EXPECT_EQ(Ctx.getArrayType(Ctx.getInt32Type(), 10)->getStoreSize(), 40u);
}

TEST(IRTypes, CompatibilityMatchesPaperRules) {
  Context Ctx;
  // Integers compress to the wider; floats likewise; pointers always.
  EXPECT_TRUE(Ctx.getInt8Type()->isCompatibleWith(Ctx.getInt64Type()));
  EXPECT_TRUE(Ctx.getFloatType()->isCompatibleWith(Ctx.getDoubleType()));
  EXPECT_FALSE(Ctx.getInt32Type()->isCompatibleWith(Ctx.getFloatType()));
  EXPECT_EQ(Type::getCompressedType(Ctx.getInt8Type(), Ctx.getInt64Type()),
            Ctx.getInt64Type());
  EXPECT_EQ(
      Type::getCompressedType(Ctx.getDoubleType(), Ctx.getFloatType()),
      Ctx.getDoubleType());
}

TEST(IRTypes, NamesRender) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt32Type()->getName(), "i32");
  EXPECT_EQ(Ctx.getPointerType(Ctx.getFloatType())->getName(), "f32*");
  EXPECT_EQ(Ctx.getArrayType(Ctx.getInt8Type(), 3)->getName(), "[3 x i8]");
}

//===----------------------------------------------------------------------===//
// Values / use lists
//===----------------------------------------------------------------------===//

struct IRFixture {
  Context Ctx;
  Module M{Ctx, "unit"};
  Function *F = nullptr;
  BasicBlock *Entry = nullptr;
  IRBuilder B{M};

  IRFixture() {
    FunctionType *FTy =
        Ctx.getFunctionType(Ctx.getInt32Type(), {Ctx.getInt32Type()});
    F = M.createFunction("f", FTy);
    Entry = F->addBlock("entry");
    B.setInsertPoint(Entry);
  }
};

TEST(IRValues, UseListsTrackOperands) {
  IRFixture X;
  Value *Arg = X.F->getArg(0);
  auto *Add = X.B.createAdd(Arg, X.M.getInt32(1));
  EXPECT_EQ(Arg->getNumUses(), 1u);
  auto *Mul = X.B.createMul(Add, Add);
  EXPECT_EQ(Add->getNumUses(), 2u); // Both operand slots count.
  X.B.createRet(Mul);
  EXPECT_EQ(Mul->getNumUses(), 1u);
}

TEST(IRValues, RAUWRewritesAllSlots) {
  IRFixture X;
  Value *Arg = X.F->getArg(0);
  auto *Add = X.B.createAdd(Arg, Arg);
  ConstantInt *C = X.M.getInt32(7);
  Arg->replaceAllUsesWith(C);
  EXPECT_EQ(Arg->getNumUses(), 0u);
  EXPECT_EQ(Add->getOperand(0), C);
  EXPECT_EQ(Add->getOperand(1), C);
}

TEST(IRValues, ConstantsAreInterned) {
  IRFixture X;
  EXPECT_EQ(X.M.getInt32(42), X.M.getInt32(42));
  EXPECT_NE(X.M.getInt32(42), X.M.getInt64(42));
  // Width normalization: (i8)300 == (i8)44.
  EXPECT_EQ(X.M.getInt8(300), X.M.getInt8(44));
}

TEST(IRValues, EraseRequiresNoUsers) {
  IRFixture X;
  auto *Add = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  auto *Dead = X.B.createAdd(Add, X.M.getInt32(2));
  EXPECT_TRUE(Add->hasUses());
  Dead->eraseFromParent(); // Dead has no users: fine.
  EXPECT_FALSE(Add->hasUses());
}

//===----------------------------------------------------------------------===//
// Block surgery
//===----------------------------------------------------------------------===//

TEST(IRBlocks, SplitBeforeMovesTail) {
  IRFixture X;
  auto *A = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  auto *Bv = X.B.createAdd(A, X.M.getInt32(2));
  X.B.createRet(Bv);
  BasicBlock *Tail = X.Entry->splitBefore(Bv, "tail");
  EXPECT_EQ(X.Entry->size(), 2u); // A + br.
  EXPECT_EQ(Tail->size(), 2u);    // Bv + ret.
  EXPECT_EQ(X.Entry->getTerminator()->getSuccessor(0), Tail);
  EXPECT_TRUE(verifyModule(X.M).empty());
}

TEST(IRBlocks, PredecessorsComputed) {
  IRFixture X;
  BasicBlock *T = X.F->addBlock("t");
  BasicBlock *E = X.F->addBlock("e");
  BasicBlock *J = X.F->addBlock("j");
  Value *C = X.B.createCmp(CmpPred::SGT, X.F->getArg(0), X.M.getInt32(0));
  X.B.createCondBr(C, T, E);
  X.B.setInsertPoint(T);
  X.B.createBr(J);
  X.B.setInsertPoint(E);
  X.B.createBr(J);
  X.B.setInsertPoint(J);
  X.B.createRet(X.M.getInt32(0));
  EXPECT_EQ(J->predecessors().size(), 2u);
  EXPECT_EQ(T->predecessors().size(), 1u);
  EXPECT_TRUE(X.Entry->predecessors().empty());
}

TEST(IRBlocks, CloneFunctionBlocksRemaps) {
  IRFixture X;
  auto *Add = X.B.createAdd(X.F->getArg(0), X.M.getInt32(5));
  X.B.createRet(Add);

  FunctionType *GTy =
      X.Ctx.getFunctionType(X.Ctx.getInt32Type(), {X.Ctx.getInt32Type()});
  Function *G = X.M.createFunction("g", GTy);
  std::map<const Value *, Value *> VMap;
  VMap[X.F->getArg(0)] = G->getArg(0);
  std::vector<BasicBlock *> Cloned = cloneFunctionBlocks(*X.F, *G, VMap);
  ASSERT_EQ(Cloned.size(), 1u);
  // The cloned add must reference G's argument, not F's.
  const Instruction *ClonedAdd = Cloned[0]->getInst(0);
  EXPECT_EQ(ClonedAdd->getOperand(0), G->getArg(0));
  EXPECT_TRUE(verifyModule(X.M).empty());
}

//===----------------------------------------------------------------------===//
// Verifier negative cases
//===----------------------------------------------------------------------===//

TEST(Verifier, CatchesMissingTerminator) {
  IRFixture X;
  X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  // No terminator.
  EXPECT_FALSE(verifyModule(X.M).empty());
}

TEST(Verifier, CatchesUseBeforeDefInBlock) {
  IRFixture X;
  auto *A = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  auto *Use = X.B.createAdd(A, X.M.getInt32(2));
  X.B.createRet(Use);
  // Move the def after its use.
  std::unique_ptr<Instruction> Owned = X.Entry->take(A);
  A->setParent(X.Entry);
  X.Entry->insertAt(1, Owned.release());
  EXPECT_FALSE(verifyModule(X.M).empty());
}

TEST(Verifier, CatchesCrossBlockDominanceViolation) {
  IRFixture X;
  BasicBlock *T = X.F->addBlock("t");
  BasicBlock *E = X.F->addBlock("e");
  BasicBlock *J = X.F->addBlock("j");
  Value *C = X.B.createCmp(CmpPred::SGT, X.F->getArg(0), X.M.getInt32(0));
  X.B.createCondBr(C, T, E);
  X.B.setInsertPoint(T);
  auto *OnlyOnT = X.B.createAdd(X.F->getArg(0), X.M.getInt32(9));
  X.B.createBr(J);
  X.B.setInsertPoint(E);
  X.B.createBr(J);
  X.B.setInsertPoint(J);
  X.B.createRet(OnlyOnT); // Not dominated: E-path never defines it.
  EXPECT_FALSE(verifyModule(X.M).empty());
}

TEST(Verifier, CatchesReturnTypeMismatch) {
  IRFixture X;
  X.B.createRetVoid(); // Function returns i32.
  EXPECT_FALSE(verifyModule(X.M).empty());
}

TEST(Verifier, AcceptsWellFormedDiamond) {
  IRFixture X;
  BasicBlock *T = X.F->addBlock("t");
  BasicBlock *E = X.F->addBlock("e");
  BasicBlock *J = X.F->addBlock("j");
  auto *Slot = X.B.createAlloca(X.Ctx.getInt32Type());
  Value *C = X.B.createCmp(CmpPred::SGT, X.F->getArg(0), X.M.getInt32(0));
  X.B.createCondBr(C, T, E);
  X.B.setInsertPoint(T);
  X.B.createStore(X.M.getInt32(1), Slot);
  X.B.createBr(J);
  X.B.setInsertPoint(E);
  X.B.createStore(X.M.getInt32(2), Slot);
  X.B.createBr(J);
  X.B.setInsertPoint(J);
  X.B.createRet(X.B.createLoad(Slot));
  EXPECT_TRUE(verifyModule(X.M).empty());
}

//===----------------------------------------------------------------------===//
// Verifier dominance rule: a use in a reachable block must be dominated by
// its def's block; uses inside unreachable blocks get only the same-block
// order check.
//===----------------------------------------------------------------------===//

bool mentions(const std::vector<std::string> &Errors, const char *Text) {
  for (const std::string &E : Errors)
    if (E.find(Text) != std::string::npos)
      return true;
  return false;
}

TEST(Verifier, AcceptsReachableBlockWithDeadPredecessor) {
  // "dead" has no predecessors but branches into j. j's only reachable
  // predecessor is the entry, which therefore dominates it. (The old
  // set-based dominance intersected over the dead predecessor too and
  // reported a false "not dominated" here.)
  IRFixture X;
  BasicBlock *Dead = X.F->addBlock("dead");
  BasicBlock *J = X.F->addBlock("j");
  auto *Def = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  X.B.createBr(J);
  X.B.setInsertPoint(Dead);
  X.B.createBr(J);
  X.B.setInsertPoint(J);
  X.B.createRet(Def);
  std::vector<std::string> Errors = verifyModule(X.M);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
}

TEST(Verifier, AcceptsCrossBlockUseInUnreachableBlock) {
  IRFixture X;
  BasicBlock *Dead = X.F->addBlock("dead");
  auto *Def = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  X.B.createRet(Def);
  X.B.setInsertPoint(Dead);
  X.B.createRet(X.B.createMul(Def, Def));
  std::vector<std::string> Errors = verifyModule(X.M);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
}

TEST(Verifier, RejectsReachableUseOfUnreachableDef) {
  IRFixture X;
  BasicBlock *Dead = X.F->addBlock("dead");
  BasicBlock *J = X.F->addBlock("j");
  X.B.createBr(J);
  X.B.setInsertPoint(Dead);
  auto *Def = X.B.createAdd(X.F->getArg(0), X.M.getInt32(2));
  X.B.createBr(J);
  X.B.setInsertPoint(J);
  X.B.createRet(Def);
  std::vector<std::string> Errors = verifyModule(X.M);
  EXPECT_TRUE(mentions(Errors, "use in 'j' not dominated by def in 'dead'"));
}

/// entry -> loop; loop: a = arg + 1; b = a + 2; br (b > 0) loop, exit.
struct SelfLoopFixture : IRFixture {
  BasicBlock *Loop = F->addBlock("loop");
  BasicBlock *Exit = F->addBlock("exit");
  Instruction *A = nullptr;

  SelfLoopFixture() {
    B.createBr(Loop);
    B.setInsertPoint(Loop);
    A = B.createAdd(F->getArg(0), M.getInt32(1));
    auto *Sum = B.createAdd(A, M.getInt32(2));
    B.createCondBr(B.createCmp(CmpPred::SGT, Sum, M.getInt32(0)), Loop,
                   Exit);
    B.setInsertPoint(Exit);
    B.createRet(Sum);
  }
};

TEST(Verifier, AcceptsSelfLoopUsingItsEarlierDef) {
  SelfLoopFixture X;
  std::vector<std::string> Errors = verifyModule(X.M);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
}

TEST(Verifier, RejectsSelfLoopUseBeforeDef) {
  // The back edge does not make a use before the def legal: the first
  // iteration would read an undefined value.
  SelfLoopFixture X;
  std::unique_ptr<Instruction> Owned = X.Loop->take(X.A);
  X.Loop->insertAt(1, Owned.release());
  EXPECT_TRUE(
      mentions(verifyModule(X.M), "use before def inside block 'loop'"));
}

/// Runs \p Fn on a thread with exactly \p Bytes of stack, so a recursion
/// limit shows up the same way whatever the process's ulimit is.
void runOnStack(size_t Bytes, const std::function<void()> &Fn) {
  pthread_attr_t Attr;
  ASSERT_EQ(pthread_attr_init(&Attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&Attr, Bytes), 0);
  pthread_t T;
  auto Body = [](void *Arg) -> void * {
    (*static_cast<const std::function<void()> *>(Arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&T, &Attr, Body,
                           const_cast<std::function<void()> *>(&Fn)),
            0);
  pthread_join(T, nullptr);
  pthread_attr_destroy(&Attr);
}

TEST(Verifier, LongBlockChainOnEightMegabyteStack) {
  // A straight chain twice as long as the one that overflowed the old
  // recursive postorder DFS on an 8 MB stack (about 75000 blocks in a
  // Release build, fewer in Debug). The last block uses a def from the
  // entry, so the dominance check spans the whole chain.
  constexpr size_t NumBlocks = 150000;
  IRFixture X;
  std::vector<BasicBlock *> Chain{X.Entry};
  for (size_t I = 1; I != NumBlocks; ++I)
    Chain.push_back(X.F->addBlock(formatStr("b%zu", I)));
  auto *Def = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  for (size_t I = 0; I + 1 != NumBlocks; ++I) {
    X.B.setInsertPoint(Chain[I]);
    X.B.createBr(Chain[I + 1]);
  }
  X.B.setInsertPoint(Chain.back());
  X.B.createRet(Def);

  std::vector<std::string> Errors;
  size_t Reachable = 0;
  bool EntryDominatesLast = false;
  BasicBlock *LastIDom = nullptr;
  runOnStack(size_t(8) << 20, [&] {
    Errors = verifyModule(X.M);
    DominatorTree DT(*X.F);
    Reachable = DT.getRPO().size();
    EntryDominatesLast = DT.dominates(Chain.front(), Chain.back());
    LastIDom = DT.getIDom(Chain.back());
  });
  EXPECT_TRUE(Errors.empty());
  EXPECT_EQ(Reachable, NumBlocks);
  EXPECT_TRUE(EntryDominatesLast);
  EXPECT_EQ(LastIDom, Chain[NumBlocks - 2]);
}

//===----------------------------------------------------------------------===//
// Direct IR execution (no frontend)
//===----------------------------------------------------------------------===//

TEST(VMDirect, RunsHandBuiltModule) {
  Context Ctx;
  Module M(Ctx, "handbuilt");
  FunctionType *MainTy = Ctx.getFunctionType(Ctx.getInt32Type(), {});
  Function *Main = M.createFunction("main", MainTy);
  IRBuilder B(M);
  B.setInsertPoint(Main->addBlock("entry"));
  Value *Sum = B.createAdd(M.getInt32(40), M.getInt32(2));
  B.createRet(Sum);
  ExecResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(VMDirect, TaggedFunctionConstantRoundTrips) {
  // Build: int f(int) {return x*2;} ; ptr tagged(f, 0) in a global; main
  // loads and calls it indirectly.
  Context Ctx;
  Module M(Ctx, "tagged");
  Type *I32 = Ctx.getInt32Type();
  FunctionType *FTy = Ctx.getFunctionType(I32, {I32});
  Function *F = M.createFunction("f", FTy);
  {
    IRBuilder B(M);
    B.setInsertPoint(F->addBlock("entry"));
    B.createRet(B.createMul(F->getArg(0), M.getInt32(2)));
  }
  Type *FPtrTy = Ctx.getPointerType(FTy);
  GlobalVariable *GV = M.createGlobal("fp", FPtrTy);
  GV->setInitializer({M.getTaggedFunc(FPtrTy, F, 0)});

  Function *Main = M.createFunction("main",
                                    Ctx.getFunctionType(I32, {}));
  {
    IRBuilder B(M);
    B.setInsertPoint(Main->addBlock("entry"));
    Value *FP = B.createLoad(GV);
    Value *R = B.createCall(FP, {M.getInt32(21)});
    B.createRet(R);
  }
  ExecResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(VMDirect, MisalignedIndirectCallTraps) {
  // A *tagged* pointer called without the untag dispatch must trap — the
  // faithfulness property fusion's correctness rests on.
  Context Ctx;
  Module M(Ctx, "trap");
  Type *I32 = Ctx.getInt32Type();
  FunctionType *FTy = Ctx.getFunctionType(I32, {I32});
  Function *F = M.createFunction("f", FTy);
  {
    IRBuilder B(M);
    B.setInsertPoint(F->addBlock("entry"));
    B.createRet(F->getArg(0));
  }
  Function *Main =
      M.createFunction("main", Ctx.getFunctionType(I32, {}));
  {
    IRBuilder B(M);
    B.setInsertPoint(Main->addBlock("entry"));
    Value *Tagged = M.getTaggedFunc(Ctx.getPointerType(FTy), F, 2);
    Value *R = B.createCall(Tagged, {M.getInt32(1)});
    B.createRet(R);
  }
  ExecResult R = runModule(M);
  EXPECT_FALSE(R.Ok);
}

TEST(VMDirect, StepLimitStopsInfiniteLoop) {
  Context Ctx;
  Module M(Ctx, "inf");
  Function *Main =
      M.createFunction("main", Ctx.getFunctionType(Ctx.getInt32Type(), {}));
  IRBuilder B(M);
  BasicBlock *Entry = Main->addBlock("entry");
  BasicBlock *Loop = Main->addBlock("loop");
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  B.createBr(Loop);
  ExecOptions Opts;
  Opts.MaxSteps = 10'000;
  ExecResult R = runModule(M, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(IRPrinter, RoundTripsStructure) {
  IRFixture X;
  auto *Add = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  X.B.createRet(Add);
  std::string Text = printModule(X.M);
  EXPECT_NE(Text.find("define i32 @f"), std::string::npos);
  EXPECT_NE(Text.find("add i32"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

} // namespace
