//===- transform/Cloning.cpp - IR cloning utilities ---------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transform/Cloning.h"

#include "ir/Function.h"
#include "ir/Module.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

using namespace khaos;

std::vector<BasicBlock *>
khaos::cloneFunctionBlocks(const Function &Src, Function &Dst,
                           std::map<const Value *, Value *> &VMap) {
  std::map<const BasicBlock *, BasicBlock *> BlockMap;
  std::vector<BasicBlock *> NewBlocks;

  // First create empty blocks so successors can be remapped.
  for (const auto &BB : Src.blocks()) {
    BasicBlock *NewBB = Dst.addBlock(BB->getName() + ".i");
    BlockMap[BB.get()] = NewBB;
    NewBlocks.push_back(NewBB);
  }

  // Clone instructions, then register operands and remap successors.
  for (const auto &BB : Src.blocks()) {
    BasicBlock *NewBB = BlockMap[BB.get()];
    for (const auto &I : BB->insts()) {
      Instruction *NI = I->clone();
      NewBB->push(NI);
      VMap[I.get()] = NI;
    }
  }
  // The slots VMap leaves alone are registered in one sweep before the
  // remapped ones, so a value that is both kinds (a call-site constant the
  // callee also names literally) lists its literal uses first: passes that
  // walk users() see the order the inliner has always produced.
  for (BasicBlock *NewBB : NewBlocks)
    for (const auto &NI : NewBB->insts())
      for (unsigned OpIdx = 0, E = NI->getNumOperands(); OpIdx != E;
           ++OpIdx)
        if (!VMap.count(NI->getOperand(OpIdx)))
          NI->registerOperand(OpIdx, NI->getOperand(OpIdx));
  for (BasicBlock *NewBB : NewBlocks) {
    for (const auto &NI : NewBB->insts()) {
      for (unsigned OpIdx = 0, E = NI->getNumOperands(); OpIdx != E;
           ++OpIdx) {
        auto It = VMap.find(NI->getOperand(OpIdx));
        if (It != VMap.end())
          NI->registerOperand(OpIdx, It->second);
      }
      for (unsigned SIdx = 0, E = NI->getNumSuccessors(); SIdx != E;
           ++SIdx) {
        auto It = BlockMap.find(NI->getSuccessor(SIdx));
        assert(It != BlockMap.end() && "successor outside cloned function");
        NI->setSuccessor(SIdx, It->second);
      }
    }
  }
  return NewBlocks;
}

namespace {

/// cloneModule's source-to-clone map: open addressing with linear probing
/// over a power-of-two table, so an insert allocates nothing until the
/// table doubles at half load. Each key is inserted once and never erased.
template <typename T> class CloneMap {
public:
  explicit CloneMap(size_t Expected) {
    resize(std::bit_ceil(std::max<size_t>(16, 2 * Expected)));
  }

  T *lookup(const T *Key) const {
    for (size_t I = home(Key);; I = (I + 1) & (Slots.size() - 1)) {
      if (Slots[I].Key == Key)
        return Slots[I].Val;
      if (!Slots[I].Key)
        return nullptr;
    }
  }

  void insert(const T *Key, T *Val) {
    if (2 * (Size + 1) > Slots.size()) {
      std::vector<Slot> Old = std::move(Slots);
      resize(2 * Old.size());
      for (const Slot &S : Old)
        if (S.Key)
          place(S.Key, S.Val);
    }
    place(Key, Val);
    ++Size;
  }

private:
  struct Slot {
    const T *Key = nullptr;
    T *Val = nullptr;
  };

  void resize(size_t Cap) {
    Slots.assign(Cap, Slot());
    Shift = 64 - std::countr_zero(Cap);
  }
  /// Fibonacci hashing: the product's top bits mix every address bit.
  size_t home(const T *Key) const {
    return static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(Key) * 0x9e3779b97f4a7c15ull) >>
        Shift);
  }
  void place(const T *Key, T *Val) {
    size_t I = home(Key);
    while (Slots[I].Key) {
      assert(Slots[I].Key != Key && "key inserted twice");
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I] = {Key, Val};
  }

  std::vector<Slot> Slots;
  size_t Size = 0;
  int Shift = 0; ///< 64 - log2(table size): home() keeps the top bits.
};

/// Re-interns \p C (a constant of Src's module) in \p Dst. Functions inside
/// tagged-function constants are remapped through \p VMap.
Constant *remapConstant(const Constant *C, Module &Dst,
                        const CloneMap<Value> &VMap) {
  switch (C->getValueKind()) {
  case ValueKind::ConstantInt: {
    const auto *CI = cast<ConstantInt>(C);
    return Dst.getConstantInt(CI->getType(), CI->getValue());
  }
  case ValueKind::ConstantFP: {
    const auto *CF = cast<ConstantFP>(C);
    return Dst.getConstantFP(CF->getType(), CF->getValue());
  }
  case ValueKind::ConstantNull:
    return Dst.getNullPtr(cast<PointerType>(C->getType()));
  case ValueKind::ConstantTaggedFunc: {
    const auto *CT = cast<ConstantTaggedFunc>(C);
    Value *F = VMap.lookup(CT->getFunction());
    assert(F && "tagged function not cloned yet");
    return Dst.getTaggedFunc(CT->getType(), cast<Function>(F),
                             CT->getTag());
  }
  default:
    assert(false && "not a constant");
    return nullptr;
  }
}

} // namespace

std::unique_ptr<Module> khaos::cloneModule(const Module &Src) {
  auto Dst = std::make_unique<Module>(Src.getContext(), Src.getName());
  // Every instruction, function, argument and global is a key; the
  // constants the bodies name grow the table if they must.
  size_t Keys = Src.instructionCount() + Src.globals().size();
  for (const auto &F : Src.functions())
    Keys += 1 + F->arg_size();
  CloneMap<Value> VMap(Keys);

  // Function shells first: bodies and global initializers may reference any
  // function (calls, tagged pointers), so every Function must exist before
  // operands are remapped.
  for (const auto &F : Src.functions()) {
    Function *NF = Dst->createFunction(F->getName(), F->getFunctionType());
    NF->setExported(F->isExported());
    NF->setNoObfuscate(F->isNoObfuscate());
    NF->setNoInline(F->isNoInline());
    NF->setIntrinsic(F->isIntrinsic());
    NF->setOrigins(F->getOrigins());
    VMap.insert(F.get(), NF);
    for (unsigned I = 0, E = F->arg_size(); I != E; ++I) {
      NF->getArg(I)->setName(F->getArg(I)->getName());
      VMap.insert(F->getArg(I), NF->getArg(I));
    }
  }

  for (const auto &G : Src.globals()) {
    GlobalVariable *NG = Dst->createGlobal(G->getName(), G->getValueType());
    std::vector<Constant *> Init;
    Init.reserve(G->getInitializer().size());
    for (const Constant *C : G->getInitializer())
      Init.push_back(remapConstant(C, *Dst, VMap));
    NG->setInitializer(std::move(Init));
    VMap.insert(G.get(), NG);
  }

  // Bodies: blocks keep their exact names (unlike cloneFunctionBlocks,
  // which suffixes inlined copies). clone() leaves Src's use lists alone;
  // each slot is remapped through VMap and registered here, in (function,
  // block, instruction, slot) order, re-interning constants on first
  // sight.
  for (const auto &F : Src.functions()) {
    if (F->isDeclaration())
      continue;
    Function *NF = cast<Function>(VMap.lookup(F.get()));
    CloneMap<BasicBlock> BlockMap(F->size());
    for (const auto &BB : F->blocks())
      BlockMap.insert(BB.get(), NF->addBlock(BB->getName()));
    for (const auto &BB : F->blocks()) {
      BasicBlock *NB = BlockMap.lookup(BB.get());
      for (const auto &I : BB->insts()) {
        Instruction *NI = I->clone();
        NB->push(NI);
        VMap.insert(I.get(), NI);
      }
    }
    for (const auto &NB : NF->blocks()) {
      for (const auto &NI : NB->insts()) {
        for (unsigned OpIdx = 0, E = NI->getNumOperands(); OpIdx != E;
             ++OpIdx) {
          Value *Op = NI->getOperand(OpIdx);
          Value *New = VMap.lookup(Op);
          if (!New) {
            assert(Op->isConstant() &&
                   "non-constant operand escaped the clone map");
            New = remapConstant(cast<Constant>(Op), *Dst, VMap);
            VMap.insert(Op, New);
          }
          NI->registerOperand(OpIdx, New);
        }
        for (unsigned SIdx = 0, E = NI->getNumSuccessors(); SIdx != E;
             ++SIdx) {
          BasicBlock *NS = BlockMap.lookup(NI->getSuccessor(SIdx));
          assert(NS && "successor outside cloned function");
          NI->setSuccessor(SIdx, NS);
        }
      }
    }
  }

  Dst->setNameCounters(Src.nameCounters());
  return Dst;
}
