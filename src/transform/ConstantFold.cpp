//===- transform/ConstantFold.cpp - Constant folding ---------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Folds binops/compares/casts/selects whose operands are constants. This
/// is the pass that erases O-LLVM's instruction substitution at -O3 (the
/// paper's §5 observation) and cleans up after fission/fusion rewiring.
/// Folded values come from ir/OpSemantics.h, the definitions both VM
/// engines execute, so folding never changes what a program computes.
///
//===----------------------------------------------------------------------===//

#include "ir/Module.h"
#include "ir/OpSemantics.h"
#include "transform/Pass.h"

using namespace khaos;

namespace {

class ConstantFoldPass : public Pass {
public:
  const char *getName() const override { return "constfold"; }
  bool run(Module &M) override;

private:
  Constant *foldInstruction(Module &M, Instruction *I);
};

} // namespace

Constant *ConstantFoldPass::foldInstruction(Module &M, Instruction *I) {
  switch (I->getOpcode()) {
  case Opcode::BinOp: {
    auto *B = cast<BinaryInst>(I);
    auto *L = dyn_cast<ConstantInt>(B->getLHS());
    auto *R = dyn_cast<ConstantInt>(B->getRHS());
    // A trapping div/rem stays: folding it would erase the trap.
    if (!L || !R || B->isFloatOp() ||
        divTrap(B->getBinOp(), L->getValue(), R->getValue()))
      return nullptr;
    return M.getConstantInt(
        B->getType(), intBinOp(B->getBinOp(), L->getValue(), R->getValue()));
  }
  case Opcode::Cmp: {
    auto *C = cast<CmpInst>(I);
    auto *L = dyn_cast<ConstantInt>(C->getLHS());
    auto *R = dyn_cast<ConstantInt>(C->getRHS());
    if (!L || !R)
      return nullptr;
    return M.getInt1(cmpOp(C->getPredicate(), L->getValue(), R->getValue()));
  }
  case Opcode::Cast: {
    auto *CI = cast<CastInst>(I);
    auto *C = dyn_cast<ConstantInt>(CI->getSource());
    const CastKind K = CI->getCastKind();
    if (!C || (K != CastKind::Trunc && K != CastKind::SExt &&
               K != CastKind::ZExt))
      return nullptr;
    OpValue Out = castOp(K, OpValue{C->getValue()},
                         CI->getSource()->getType()->getKind(),
                         I->getType()->getKind());
    return M.getConstantInt(I->getType(), Out.I);
  }
  case Opcode::Select: {
    auto *S = cast<SelectInst>(I);
    auto *C = dyn_cast<ConstantInt>(S->getCondition());
    if (!C)
      return nullptr;
    Value *Chosen = C->isZero() ? S->getFalseValue() : S->getTrueValue();
    if (auto *K = dyn_cast<Constant>(Chosen))
      return const_cast<Constant *>(K);
    return nullptr;
  }
  default:
    return nullptr;
  }
}

bool ConstantFoldPass::run(Module &M) {
  bool Changed = false;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    bool LocalChanged = true;
    while (LocalChanged) {
      LocalChanged = false;
      for (const auto &BB : F->blocks()) {
        for (size_t Idx = 0; Idx < BB->size(); ++Idx) {
          Instruction *I = BB->getInst(Idx);
          // Algebraic identity: op with a zero RHS that is a no-op.
          if (auto *B = dyn_cast<BinaryInst>(I)) {
            auto *R = dyn_cast<ConstantInt>(B->getRHS());
            if (R && R->isZero() && !B->isFloatOp() &&
                (B->getBinOp() == BinOp::Add ||
                 B->getBinOp() == BinOp::Sub ||
                 B->getBinOp() == BinOp::Or ||
                 B->getBinOp() == BinOp::Xor ||
                 B->getBinOp() == BinOp::Shl ||
                 B->getBinOp() == BinOp::AShr ||
                 B->getBinOp() == BinOp::LShr)) {
              if (I->hasUses()) {
                I->replaceAllUsesWith(B->getLHS());
                LocalChanged = true;
                continue;
              }
            }
            if (R && R->isOne() && B->getBinOp() == BinOp::Mul &&
                I->hasUses()) {
              I->replaceAllUsesWith(B->getLHS());
              LocalChanged = true;
              continue;
            }
          }
          Constant *C = foldInstruction(M, I);
          if (!C || !I->hasUses())
            continue;
          I->replaceAllUsesWith(C);
          LocalChanged = true;
        }
      }
      Changed |= LocalChanged;
    }
  }
  return Changed;
}

std::unique_ptr<Pass> khaos::createConstantFoldPass() {
  return std::make_unique<ConstantFoldPass>();
}
