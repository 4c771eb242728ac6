//===- ir/Module.cpp - KIR module ---------------------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"
#include "ir/OpSemantics.h"

#include <cassert>

using namespace khaos;

Module::~Module() {
  // Every value an operand can name dies here too: the functions, their
  // arguments and instructions, the globals and the interned constants
  // (verifyModule rejects operands naming another module's values). So no
  // use list needs editing: forget the operands, and the Function and
  // BasicBlock destructors find nothing left to drop.
  for (auto &F : Functions)
    for (auto &BB : F->blocks())
      for (auto &I : BB->insts())
        I->forgetOperands();
}

Function *Module::createFunction(const std::string &Name, FunctionType *FTy) {
  assert(!getFunction(Name) && "duplicate function name");
  auto *F = new Function(Ctx.getPointerType(FTy), Name, this);
  Functions.emplace_back(F);
  return F;
}

Function *Module::getFunction(const std::string &Name) const {
  for (const auto &F : Functions)
    if (F->getName() == Name)
      return F.get();
  return nullptr;
}

void Module::eraseFunction(Function *F) {
  assert(!F->hasUses() && "erasing function that still has users");
  for (size_t I = 0, E = Functions.size(); I != E; ++I)
    if (Functions[I].get() == F) {
      Functions.erase(Functions.begin() + I);
      return;
    }
  assert(false && "function not in this module");
}

size_t Module::instructionCount() const {
  size_t N = 0;
  for (const auto &F : Functions)
    N += F->instructionCount();
  return N;
}

GlobalVariable *Module::createGlobal(const std::string &Name,
                                     Type *ValueType) {
  assert(!getGlobal(Name) && "duplicate global name");
  auto *GV = new GlobalVariable(Ctx.getPointerType(ValueType), ValueType,
                                Name);
  Globals.emplace_back(GV);
  return GV;
}

GlobalVariable *Module::getGlobal(const std::string &Name) const {
  for (const auto &G : Globals)
    if (G->getName() == Name)
      return G.get();
  return nullptr;
}

ConstantInt *Module::getConstantInt(Type *Ty, int64_t V) {
  assert(Ty->isInteger() && "integer constant of non-integer type");
  // Normalize to the type's width so interning never aliases distinct
  // values.
  V = narrowInt(V, Ty->getKind());
  auto &Slot = IntConstants[{Ty, V}];
  if (!Slot)
    Slot.reset(new ConstantInt(Ty, V));
  return Slot.get();
}

ConstantInt *Module::getInt1(bool V) {
  return getConstantInt(Ctx.getInt1Type(), V);
}
ConstantInt *Module::getInt8(int64_t V) {
  return getConstantInt(Ctx.getInt8Type(), V);
}
ConstantInt *Module::getInt32(int64_t V) {
  return getConstantInt(Ctx.getInt32Type(), V);
}
ConstantInt *Module::getInt64(int64_t V) {
  return getConstantInt(Ctx.getInt64Type(), V);
}

ConstantFP *Module::getConstantFP(Type *Ty, double V) {
  assert(Ty->isFloatingPoint() && "FP constant of non-FP type");
  V = roundFP(V, Ty->getKind());
  auto &Slot = FPConstants[{Ty, V}];
  if (!Slot)
    Slot.reset(new ConstantFP(Ty, V));
  return Slot.get();
}

ConstantNull *Module::getNullPtr(PointerType *Ty) {
  auto &Slot = NullConstants[Ty];
  if (!Slot)
    Slot.reset(new ConstantNull(Ty));
  return Slot.get();
}

ConstantTaggedFunc *Module::getTaggedFunc(Type *PtrTy, Function *F,
                                          unsigned Tag) {
  assert(Tag < 16 && "tag must fit the low nibble");
  auto &Slot = TaggedFuncConstants[{F, Tag}];
  if (!Slot)
    Slot.reset(new ConstantTaggedFunc(PtrTy, F, Tag));
  return Slot.get();
}

Constant *Module::getZeroValue(Type *Ty) {
  if (Ty->isInteger())
    return getConstantInt(Ty, 0);
  if (Ty->isFloatingPoint())
    return getConstantFP(Ty, 0.0);
  if (auto *PT = dyn_cast<PointerType>(Ty))
    return getNullPtr(const_cast<PointerType *>(PT));
  assert(false && "no zero value for this type");
  return nullptr;
}

std::string Module::uniqueName(const std::string &Stem) {
  unsigned &Counter = NameCounters[Stem];
  while (true) {
    std::string Candidate = Stem + "." + std::to_string(Counter++);
    if (!getFunction(Candidate) && !getGlobal(Candidate))
      return Candidate;
  }
}
