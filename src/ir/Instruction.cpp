//===- ir/Instruction.cpp - KIR instruction set -----------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Instruction.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"

#include <cassert>

using namespace khaos;

Instruction::~Instruction() { dropAllReferences(); }

Function *Instruction::getFunction() const {
  return Parent ? Parent->getParent() : nullptr;
}

void Instruction::setOperand(unsigned I, Value *V) {
  assert(I < Operands.size() && "operand index out of range");
  assert(V && "operand must be non-null");
  if (Operands[I])
    Operands[I]->removeUser(this);
  Operands[I] = V;
  V->addUser(this);
}

void Instruction::registerOperand(unsigned I, Value *V) {
  assert(I < Operands.size() && "operand index out of range");
  assert(V && "operand must be non-null");
  Operands[I] = V;
  V->addUser(this);
}

void Instruction::addOperand(Value *V) {
  assert(V && "operand must be non-null");
  Operands.push_back(V);
  V->addUser(this);
}

void Instruction::dropAllReferences() {
  for (Value *Op : Operands)
    if (Op)
      Op->removeUser(this);
  Operands.clear();
}

void Instruction::replaceSuccessor(BasicBlock *From, BasicBlock *To) {
  for (auto &S : Successors)
    if (S == From)
      S = To;
}

bool Instruction::mayHaveSideEffects() const {
  switch (Op) {
  case Opcode::Store:
  case Opcode::Call:
  case Opcode::Invoke:
  case Opcode::Throw:
    return true;
  case Opcode::BinOp:
    // Division can trap on zero; preserve it.
    return static_cast<const BinaryInst *>(this)->isDivRem();
  default:
    return isTerminator();
  }
}

void Instruction::eraseFromParent() {
  assert(Parent && "instruction has no parent");
  assert(!hasUses() && "erasing instruction that still has users");
  Parent->erase(this);
}

/// Copies \p I through its subclass's implicit copy constructor, whose
/// Instruction part copies the operand slots without registering them.
template <typename InstT> static Instruction *copyOf(const Instruction *I) {
  return new InstT(*static_cast<const InstT *>(I));
}

Instruction *Instruction::clone() const {
  switch (Op) {
  case Opcode::Alloca:
    return copyOf<AllocaInst>(this);
  case Opcode::Load:
    return copyOf<LoadInst>(this);
  case Opcode::Store:
    return copyOf<StoreInst>(this);
  case Opcode::BinOp:
    return copyOf<BinaryInst>(this);
  case Opcode::Cmp:
    return copyOf<CmpInst>(this);
  case Opcode::Cast:
    return copyOf<CastInst>(this);
  case Opcode::GEP:
    return copyOf<GEPInst>(this);
  case Opcode::Select:
    return copyOf<SelectInst>(this);
  case Opcode::Call:
    return copyOf<CallInst>(this);
  case Opcode::Invoke:
    return copyOf<InvokeInst>(this);
  case Opcode::LandingPad:
    return copyOf<LandingPadInst>(this);
  case Opcode::Throw:
    return copyOf<ThrowInst>(this);
  case Opcode::Br:
    return copyOf<BranchInst>(this);
  case Opcode::Switch:
    return copyOf<SwitchInst>(this);
  case Opcode::Ret:
    return copyOf<ReturnInst>(this);
  case Opcode::Unreachable:
    return copyOf<UnreachableInst>(this);
  }
  assert(false && "unknown opcode in clone()");
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Subclass constructors and classof helpers.
//===----------------------------------------------------------------------===//

static bool hasOpcode(const Value *V, Opcode Op) {
  const auto *I = dyn_cast<Instruction>(V);
  return I && I->getOpcode() == Op;
}

bool AllocaInst::classof(const Value *V) {
  return hasOpcode(V, Opcode::Alloca);
}

LoadInst::LoadInst(Value *Ptr, std::string Name)
    : Instruction(Opcode::Load,
                  cast<PointerType>(Ptr->getType())->getPointee(),
                  std::move(Name)) {
  assert(getType()->isFirstClass() && "load of non-first-class type");
  addOperand(Ptr);
}

bool LoadInst::classof(const Value *V) { return hasOpcode(V, Opcode::Load); }

StoreInst::StoreInst(Value *Val, Value *Ptr)
    : Instruction(Opcode::Store,
                  Val->getType()->getContext().getVoidType()) {
  assert(cast<PointerType>(Ptr->getType())->getPointee() == Val->getType() &&
         "store type mismatch");
  addOperand(Val);
  addOperand(Ptr);
}

bool StoreInst::classof(const Value *V) {
  return hasOpcode(V, Opcode::Store);
}

BinaryInst::BinaryInst(BinOp Kind, Value *L, Value *R, std::string Name)
    : Instruction(Opcode::BinOp, L->getType(), std::move(Name)), Kind(Kind) {
  assert(L->getType() == R->getType() && "binop operand type mismatch");
  addOperand(L);
  addOperand(R);
}

const char *BinaryInst::getOpName(BinOp K) {
  switch (K) {
  case BinOp::Add:
    return "add";
  case BinOp::Sub:
    return "sub";
  case BinOp::Mul:
    return "mul";
  case BinOp::SDiv:
    return "sdiv";
  case BinOp::SRem:
    return "srem";
  case BinOp::And:
    return "and";
  case BinOp::Or:
    return "or";
  case BinOp::Xor:
    return "xor";
  case BinOp::Shl:
    return "shl";
  case BinOp::AShr:
    return "ashr";
  case BinOp::LShr:
    return "lshr";
  case BinOp::FAdd:
    return "fadd";
  case BinOp::FSub:
    return "fsub";
  case BinOp::FMul:
    return "fmul";
  case BinOp::FDiv:
    return "fdiv";
  }
  return "<binop>";
}

bool BinaryInst::classof(const Value *V) {
  return hasOpcode(V, Opcode::BinOp);
}

CmpInst::CmpInst(CmpPred Pred, Value *L, Value *R, std::string Name)
    : Instruction(Opcode::Cmp, L->getType()->getContext().getInt1Type(),
                  std::move(Name)),
      Pred(Pred) {
  assert(L->getType() == R->getType() && "cmp operand type mismatch");
  addOperand(L);
  addOperand(R);
}

const char *CmpInst::getPredName(CmpPred P) {
  switch (P) {
  case CmpPred::EQ:
    return "eq";
  case CmpPred::NE:
    return "ne";
  case CmpPred::SLT:
    return "slt";
  case CmpPred::SLE:
    return "sle";
  case CmpPred::SGT:
    return "sgt";
  case CmpPred::SGE:
    return "sge";
  }
  return "<pred>";
}

bool CmpInst::classof(const Value *V) { return hasOpcode(V, Opcode::Cmp); }

CastInst::CastInst(CastKind Kind, Value *V, Type *DestTy, std::string Name)
    : Instruction(Opcode::Cast, DestTy, std::move(Name)), Kind(Kind) {
  addOperand(V);
}

const char *CastInst::getCastName(CastKind K) {
  switch (K) {
  case CastKind::Trunc:
    return "trunc";
  case CastKind::SExt:
    return "sext";
  case CastKind::ZExt:
    return "zext";
  case CastKind::FPToSI:
    return "fptosi";
  case CastKind::SIToFP:
    return "sitofp";
  case CastKind::FPTrunc:
    return "fptrunc";
  case CastKind::FPExt:
    return "fpext";
  case CastKind::Bitcast:
    return "bitcast";
  case CastKind::PtrToInt:
    return "ptrtoint";
  case CastKind::IntToPtr:
    return "inttoptr";
  }
  return "<cast>";
}

bool CastInst::classof(const Value *V) { return hasOpcode(V, Opcode::Cast); }

static Type *gepResultType(Value *Ptr) {
  Type *Pointee = cast<PointerType>(Ptr->getType())->getPointee();
  if (auto *AT = dyn_cast<ArrayType>(Pointee))
    return AT->getElementType()->getPointerTo();
  return Ptr->getType();
}

GEPInst::GEPInst(Value *Ptr, Value *Index, std::string Name)
    : Instruction(Opcode::GEP, gepResultType(Ptr), std::move(Name)) {
  assert(Index->getType()->isInteger() && "GEP index must be an integer");
  addOperand(Ptr);
  addOperand(Index);
}

uint64_t GEPInst::getElementSize() const {
  return cast<PointerType>(getType())->getPointee()->getStoreSize();
}

bool GEPInst::classof(const Value *V) { return hasOpcode(V, Opcode::GEP); }

SelectInst::SelectInst(Value *Cond, Value *TrueV, Value *FalseV,
                       std::string Name)
    : Instruction(Opcode::Select, TrueV->getType(), std::move(Name)) {
  assert(TrueV->getType() == FalseV->getType() &&
         "select arm type mismatch");
  addOperand(Cond);
  addOperand(TrueV);
  addOperand(FalseV);
}

bool SelectInst::classof(const Value *V) {
  return hasOpcode(V, Opcode::Select);
}

Type *CallInst::resultTypeForCallee(Value *Callee) {
  Type *T = Callee->getType();
  // Callee is a pointer to function (possibly through a data pointer).
  auto *PT = cast<PointerType>(T);
  auto *FT = cast<FunctionType>(PT->getPointee());
  Type *Ret = FT->getReturnType();
  return Ret;
}

CallInst::CallInst(Value *Callee, std::vector<Value *> Args,
                   std::string Name)
    : CallInst(Opcode::Call, Callee, std::move(Args), std::move(Name)) {}

CallInst::CallInst(Opcode Op, Value *Callee, std::vector<Value *> Args,
                   std::string Name)
    : Instruction(Op, resultTypeForCallee(Callee), std::move(Name)) {
  addOperand(Callee);
  for (Value *A : Args)
    addOperand(A);
}

Function *CallInst::getCalledFunction() const {
  return dyn_cast<Function>(getCallee());
}

FunctionType *CallInst::getCalleeType() const {
  return cast<FunctionType>(
      cast<PointerType>(getCallee()->getType())->getPointee());
}

bool CallInst::classof(const Value *V) {
  return hasOpcode(V, Opcode::Call) || hasOpcode(V, Opcode::Invoke);
}

InvokeInst::InvokeInst(Value *Callee, std::vector<Value *> Args,
                       BasicBlock *NormalDest, BasicBlock *UnwindDest,
                       std::string Name)
    : CallInst(Opcode::Invoke, Callee, std::move(Args), std::move(Name)) {
  addSuccessor(NormalDest);
  addSuccessor(UnwindDest);
}

bool InvokeInst::classof(const Value *V) {
  return hasOpcode(V, Opcode::Invoke);
}

LandingPadInst::LandingPadInst(Type *I64Ty, std::string Name)
    : Instruction(Opcode::LandingPad, I64Ty, std::move(Name)) {
  assert(I64Ty->getKind() == TypeKind::Int64 && "landingpad must be i64");
}

bool LandingPadInst::classof(const Value *V) {
  return hasOpcode(V, Opcode::LandingPad);
}

ThrowInst::ThrowInst(Value *Payload)
    : Instruction(Opcode::Throw,
                  Payload->getType()->getContext().getVoidType()) {
  addOperand(Payload);
}

bool ThrowInst::classof(const Value *V) {
  return hasOpcode(V, Opcode::Throw);
}

// Note: an unconditional branch has no handle on a Context, so its Value
// type is null. Nothing queries a terminator's type.
BranchInst::BranchInst(BasicBlock *Dest) : Instruction(Opcode::Br, nullptr) {
  assert(Dest && "branch to null block");
  addSuccessor(Dest);
}

BranchInst::BranchInst(Value *Cond, BasicBlock *TrueDest,
                       BasicBlock *FalseDest)
    : Instruction(Opcode::Br, Cond->getType()->getContext().getVoidType()) {
  assert(Cond->getType()->getKind() == TypeKind::Int1 &&
         "branch condition must be i1");
  addOperand(Cond);
  addSuccessor(TrueDest);
  addSuccessor(FalseDest);
}

bool BranchInst::classof(const Value *V) { return hasOpcode(V, Opcode::Br); }

SwitchInst::SwitchInst(Value *Cond, BasicBlock *DefaultDest)
    : Instruction(Opcode::Switch,
                  Cond->getType()->getContext().getVoidType()) {
  assert(Cond->getType()->isInteger() &&
         "switch condition must be an integer");
  addOperand(Cond);
  addSuccessor(DefaultDest);
}

void SwitchInst::addCase(int64_t Val, BasicBlock *Dest) {
  CaseValues.push_back(Val);
  addSuccessor(Dest);
}

bool SwitchInst::classof(const Value *V) {
  return hasOpcode(V, Opcode::Switch);
}

ReturnInst::ReturnInst(Value *RetVal, Type *VoidTy)
    : Instruction(Opcode::Ret, VoidTy) {
  if (RetVal)
    addOperand(RetVal);
}

bool ReturnInst::classof(const Value *V) { return hasOpcode(V, Opcode::Ret); }

UnreachableInst::UnreachableInst(Type *VoidTy)
    : Instruction(Opcode::Unreachable, VoidTy) {}

bool UnreachableInst::classof(const Value *V) {
  return hasOpcode(V, Opcode::Unreachable);
}
