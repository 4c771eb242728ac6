//===- obfuscation/MBASubstitution.cpp - Mixed boolean-arithmetic ---------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mixed boolean-arithmetic substitution, after the llvm-msvc-xd plugin's
/// MBA pass. Unlike Substitution.cpp's single-level strategies, every
/// helper operation an identity introduces is itself rewritten again up to
/// a per-site depth of 2-3, so one `a + b` becomes a chain like
/// `((a|b)+(a&b))` -> `(((a&b)+(a^b)) + ((~a|b)-~a))` -> ... All
/// identities hold modulo 2^n, so they are wrapping-safe on every integer
/// width:
///   a + b = (a|b) + (a&b) = (a^b) + 2(a&b) = (a - ~b) - 1
///   a - b = (a^b) - 2(~a&b) = (a + ~b) + 1
///   a ^ b = (a|b) - (a&b) = (a + b) - 2(a&b)
///   a & b = (~a|b) - ~a = (a|b) - (a^b)
///   a | b = (a&b) + (a^b) = (a + b) - (a&b)
///
//===----------------------------------------------------------------------===//

#include "obfuscation/OLLVM.h"

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/RNG.h"

using namespace khaos;

namespace {

/// Emits \p K applied to (L, R), expanding through a random MBA identity
/// when \p Depth > 0; constituent ops recurse with Depth - 1.
Value *emitMBA(Module &M, IRBuilder &Bld, BinOp K, Value *L, Value *R,
               Type *Ty, RNG &Rng, unsigned Depth) {
  if (Depth == 0)
    return Bld.createBinOp(K, L, R);
  Value *One = M.getConstantInt(Ty, 1);
  Value *Two = M.getConstantInt(Ty, 2);
  Value *AllOnes = M.getConstantInt(Ty, -1);
  auto Rec = [&](BinOp K2, Value *A, Value *B) {
    return emitMBA(M, Bld, K2, A, B, Ty, Rng, Depth - 1);
  };
  auto Not = [&](Value *V) { return Rec(BinOp::Xor, V, AllOnes); };

  switch (K) {
  case BinOp::Add:
    switch (Rng.nextBelow(3)) {
    case 0: // (a|b) + (a&b)
      return Rec(BinOp::Add, Rec(BinOp::Or, L, R), Rec(BinOp::And, L, R));
    case 1: { // (a^b) + 2*(a&b)
      Value *X = Rec(BinOp::Xor, L, R);
      Value *A2 = Bld.createBinOp(BinOp::Mul, Two, Rec(BinOp::And, L, R));
      return Rec(BinOp::Add, X, A2);
    }
    default: // (a - ~b) - 1
      return Rec(BinOp::Sub, Rec(BinOp::Sub, L, Not(R)), One);
    }
  case BinOp::Sub:
    if (Rng.nextBool()) { // (a^b) - 2*(~a&b)
      Value *X = Rec(BinOp::Xor, L, R);
      Value *A2 = Bld.createBinOp(BinOp::Mul, Two, Rec(BinOp::And, Not(L), R));
      return Rec(BinOp::Sub, X, A2);
    }
    // (a + ~b) + 1
    return Rec(BinOp::Add, Rec(BinOp::Add, L, Not(R)), One);
  case BinOp::Xor:
    if (Rng.nextBool()) // (a|b) - (a&b)
      return Rec(BinOp::Sub, Rec(BinOp::Or, L, R), Rec(BinOp::And, L, R));
    { // (a + b) - 2*(a&b)
      Value *S = Rec(BinOp::Add, L, R);
      Value *A2 = Bld.createBinOp(BinOp::Mul, Two, Rec(BinOp::And, L, R));
      return Rec(BinOp::Sub, S, A2);
    }
  case BinOp::And:
    if (Rng.nextBool()) { // (~a|b) - ~a
      Value *NotA = Not(L);
      return Rec(BinOp::Sub, Rec(BinOp::Or, NotA, R), NotA);
    }
    // (a|b) - (a^b)
    return Rec(BinOp::Sub, Rec(BinOp::Or, L, R), Rec(BinOp::Xor, L, R));
  case BinOp::Or:
    if (Rng.nextBool()) // (a&b) + (a^b)
      return Rec(BinOp::Add, Rec(BinOp::And, L, R), Rec(BinOp::Xor, L, R));
    // (a + b) - (a&b)
    return Rec(BinOp::Sub, Rec(BinOp::Add, L, R), Rec(BinOp::And, L, R));
  default:
    return Bld.createBinOp(K, L, R);
  }
}

bool isMBAOp(BinOp K) {
  switch (K) {
  case BinOp::Add:
  case BinOp::Sub:
  case BinOp::Xor:
  case BinOp::And:
  case BinOp::Or:
    return true;
  default:
    return false;
  }
}

} // namespace

unsigned khaos::runMBASubstitution(Module &M, const OLLVMOptions &Opts,
                                   PassReport *Report) {
  RNG Rng(Opts.Seed);
  unsigned Count = 0;
  uint64_t Before = M.instructionCount();
  for (const auto &F : M.functions()) {
    if (F->isDeclaration() || F->isNoObfuscate())
      continue;
    for (const auto &BB : F->blocks()) {
      // Snapshot: the rewrite inserts instructions.
      std::vector<BinaryInst *> Sites;
      for (const auto &I : BB->insts()) {
        auto *B = dyn_cast<BinaryInst>(I.get());
        if (!B || B->isFloatOp() || B->isDivRem() || !isMBAOp(B->getBinOp()))
          continue;
        if (B->getType()->getKind() == TypeKind::Int1)
          continue;
        Sites.push_back(B);
      }
      for (BinaryInst *B : Sites) {
        if (!Rng.nextBool(Opts.Ratio))
          continue;
        unsigned Depth = 2 + static_cast<unsigned>(Rng.nextBelow(2));
        IRBuilder Bld(M);
        Bld.setInsertBefore(B);
        Value *NewV = emitMBA(M, Bld, B->getBinOp(), B->getLHS(), B->getRHS(),
                              B->getType(), Rng, Depth);
        if (B->hasUses())
          B->replaceAllUsesWith(NewV);
        B->eraseFromParent();
        ++Count;
      }
    }
  }
  if (Report) {
    Report->SitesRewritten += Count;
    Report->BytesGrown += (M.instructionCount() - Before) * 4;
  }
  return Count;
}
