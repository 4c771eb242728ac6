//===- ir/IRBuilder.h - Instruction creation helper -------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience factory that creates instructions at an insertion point.
/// Used by the MiniC IR generator, the obfuscation passes and tests.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_IR_IRBUILDER_H
#define KHAOS_IR_IRBUILDER_H

#include "ir/Module.h"

#include <cassert>
#include <string>
#include <vector>

namespace khaos {

/// Builds instructions into a basic block.
class IRBuilder {
public:
  explicit IRBuilder(Module &M) : M(M), Ctx(M.getContext()) {}

  Context &getContext() const { return Ctx; }

  /// Appends new instructions at the end of \p BB (before nothing).
  void setInsertPoint(BasicBlock *BB) {
    InsertBB = BB;
    InsertBeforeInst = nullptr;
  }

  /// Inserts new instructions immediately before \p I.
  void setInsertBefore(Instruction *I) {
    InsertBB = I->getParent();
    InsertBeforeInst = I;
  }

  BasicBlock *getInsertBlock() const { return InsertBB; }

  /// True once the current block already has a terminator (in append mode).
  bool blockTerminated() const {
    return !InsertBeforeInst && InsertBB && InsertBB->getTerminator();
  }

  // Memory.
  AllocaInst *createAlloca(Type *Ty, const std::string &Name = "") {
    return insert(new AllocaInst(Ty, Name));
  }
  LoadInst *createLoad(Value *Ptr, const std::string &Name = "") {
    return insert(new LoadInst(Ptr, Name));
  }
  StoreInst *createStore(Value *Val, Value *Ptr) {
    return insert(new StoreInst(Val, Ptr));
  }
  GEPInst *createGEP(Value *Ptr, Value *Idx, const std::string &Name = "") {
    return insert(new GEPInst(Ptr, Idx, Name));
  }

  // Arithmetic.
  BinaryInst *createBinOp(BinOp K, Value *L, Value *R,
                          const std::string &Name = "") {
    return insert(new BinaryInst(K, L, R, Name));
  }
  BinaryInst *createAdd(Value *L, Value *R) {
    return createBinOp(BinOp::Add, L, R);
  }
  BinaryInst *createMul(Value *L, Value *R) {
    return createBinOp(BinOp::Mul, L, R);
  }
  CmpInst *createCmp(CmpPred P, Value *L, Value *R,
                     const std::string &Name = "") {
    return insert(new CmpInst(P, L, R, Name));
  }
  CastInst *createCast(CastKind K, Value *V, Type *DestTy,
                       const std::string &Name = "") {
    return insert(new CastInst(K, V, DestTy, Name));
  }
  SelectInst *createSelect(Value *C, Value *T, Value *F,
                           const std::string &Name = "") {
    return insert(new SelectInst(C, T, F, Name));
  }

  // Calls and exceptions.
  CallInst *createCall(Value *Callee, std::vector<Value *> Args,
                       const std::string &Name = "") {
    return insert(new CallInst(Callee, std::move(Args), Name));
  }
  InvokeInst *createInvoke(Value *Callee, std::vector<Value *> Args,
                           BasicBlock *NormalDest, BasicBlock *UnwindDest,
                           const std::string &Name = "") {
    return insert(new InvokeInst(Callee, std::move(Args), NormalDest,
                                 UnwindDest, Name));
  }
  LandingPadInst *createLandingPad(const std::string &Name = "") {
    return insert(new LandingPadInst(Ctx.getInt64Type(), Name));
  }

  // Terminators.
  BranchInst *createBr(BasicBlock *Dest) {
    return insert(new BranchInst(Dest));
  }
  BranchInst *createCondBr(Value *Cond, BasicBlock *T, BasicBlock *F) {
    return insert(new BranchInst(Cond, T, F));
  }
  SwitchInst *createSwitch(Value *Cond, BasicBlock *Default) {
    return insert(new SwitchInst(Cond, Default));
  }
  ReturnInst *createRet(Value *V) {
    return insert(new ReturnInst(V, Ctx.getVoidType()));
  }
  ReturnInst *createRetVoid() { return createRet(nullptr); }
  UnreachableInst *createUnreachable() {
    return insert(new UnreachableInst(Ctx.getVoidType()));
  }

  // Conversions commonly needed by callers.
  /// Converts \p V to integer/FP/pointer type \p DestTy inserting the
  /// appropriate cast; no-op when types already match.
  Value *createConvert(Value *V, Type *DestTy);

  /// Converts an arbitrary first-class value to an i1 "is nonzero" flag.
  Value *createIsNonZero(Value *V);

  // Constant helpers (delegate to the module).
  ConstantInt *getInt1(bool V) { return M.getInt1(V); }
  ConstantInt *getInt8(int64_t V) { return M.getInt8(V); }
  ConstantInt *getInt32(int64_t V) { return M.getInt32(V); }
  ConstantInt *getInt64(int64_t V) { return M.getInt64(V); }

private:
  template <typename T> T *insert(T *I) {
    assert(InsertBB && "no insertion point set");
    if (InsertBeforeInst)
      InsertBB->insertBefore(InsertBeforeInst, I);
    else
      InsertBB->push(I);
    return I;
  }

  Module &M;
  Context &Ctx;
  BasicBlock *InsertBB = nullptr;
  Instruction *InsertBeforeInst = nullptr;
};

} // namespace khaos

#endif // KHAOS_IR_IRBUILDER_H
