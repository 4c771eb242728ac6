//===- ir/Instruction.h - KIR instruction set -------------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The KIR instruction set. KIR is deliberately phi-free: every local
/// variable lives in an alloca and is accessed through load/store (the shape
/// clang emits at -O0). That makes inter-procedural code motion — the heart
/// of Khaos — a matter of rewriting loads/stores to go through pointer
/// parameters instead of rewiring SSA webs.
///
/// Terminators: Br, Switch, Ret, Invoke, Throw, Unreachable. Exceptional
/// control flow is modelled with Invoke/Throw/LandingPad (a simplified C++
/// EH) plus setjmp/longjmp intrinsic calls handled by the VM.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_IR_INSTRUCTION_H
#define KHAOS_IR_INSTRUCTION_H

#include "ir/Value.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace khaos {

class BasicBlock;
class Function;

/// Opcode of an Instruction.
enum class Opcode : uint8_t {
  Alloca,
  Load,
  Store,
  BinOp,
  Cmp,
  Cast,
  GEP,
  Select,
  Call,
  LandingPad,
  // Terminators from here on (keep Br first; see isTerminator).
  Br,
  Switch,
  Ret,
  Invoke,
  Throw,
  Unreachable,
};

/// Binary arithmetic/logic operations. Integer and FP variants are distinct
/// so instruction substitution and codegen can tell them apart.
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  SDiv,
  SRem,
  And,
  Or,
  Xor,
  Shl,
  AShr,
  LShr,
  FAdd,
  FSub,
  FMul,
  FDiv,
};

/// Comparison predicates; the operand type selects int vs FP semantics.
enum class CmpPred : uint8_t { EQ, NE, SLT, SLE, SGT, SGE };

/// Value conversions.
enum class CastKind : uint8_t {
  Trunc,
  SExt,
  ZExt,
  FPToSI,
  SIToFP,
  FPTrunc,
  FPExt,
  Bitcast,
  PtrToInt,
  IntToPtr,
};

/// Base class of all KIR instructions.
class Instruction : public Value {
public:
  ~Instruction() override;

  Opcode getOpcode() const { return Op; }
  BasicBlock *getParent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }
  Function *getFunction() const;

  unsigned getNumOperands() const { return Operands.size(); }
  Value *getOperand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  void setOperand(unsigned I, Value *V);
  const std::vector<Value *> &operands() const { return Operands; }

  /// Drops all operand references (removing this from their user lists).
  void dropAllReferences();

  bool isTerminator() const { return Op >= Opcode::Br; }

  unsigned getNumSuccessors() const { return Successors.size(); }
  BasicBlock *getSuccessor(unsigned I) const {
    assert(I < Successors.size() && "successor index out of range");
    return Successors[I];
  }
  void setSuccessor(unsigned I, BasicBlock *BB) {
    assert(I < Successors.size() && "successor index out of range");
    Successors[I] = BB;
  }
  const std::vector<BasicBlock *> &successors() const { return Successors; }
  /// Rewrites every successor slot equal to \p From to \p To.
  void replaceSuccessor(BasicBlock *From, BasicBlock *To);

  /// True if executing this instruction can write memory or transfer
  /// control in ways DCE must preserve.
  bool mayHaveSideEffects() const;

  /// Unlinks from the parent block and destroys the instruction. The
  /// instruction must have no remaining users.
  void eraseFromParent();

  /// Structural deep copy. Operands and successors still point at the
  /// original values/blocks, but the copy is in no use list: cloning only
  /// reads the original, so threads may clone one module concurrently.
  /// The caller must give every operand slot its final value with
  /// registerOperand() before the copy is used or destroyed.
  Instruction *clone() const;

  /// Sets slot \p I of a clone() copy to \p V and adds this to \p V's
  /// users. Unlike setOperand it removes no user from the slot's old
  /// value, which clone() never registered.
  void registerOperand(unsigned I, Value *V);

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Instruction;
  }

protected:
  Instruction(Opcode Op, Type *Ty, std::string Name = "")
      : Value(ValueKind::Instruction, Ty, std::move(Name)), Op(Op) {}
  /// clone()'s copy: same opcode, type, name, operand and successor slots;
  /// no parent, no users, and in no operand's use list. The subclasses'
  /// implicit copy constructors exist for clone(); call clone() instead.
  Instruction(const Instruction &I)
      : Value(ValueKind::Instruction, I.getType(), I.getName()), Op(I.Op),
        Operands(I.Operands), Successors(I.Successors) {}

  void addOperand(Value *V);
  void addSuccessor(BasicBlock *BB) { Successors.push_back(BB); }

private:
  friend class Module;
  /// Forgets every operand without editing use lists. Only ~Module may do
  /// this, because every value an operand can name dies with the module.
  void forgetOperands() { Operands.clear(); }

  Opcode Op;
  BasicBlock *Parent = nullptr;
  std::vector<Value *> Operands;
  std::vector<BasicBlock *> Successors;
};

/// Stack allocation of one object of the given type; yields a pointer.
class AllocaInst : public Instruction {
public:
  AllocaInst(Type *AllocatedType, std::string Name = "")
      : Instruction(Opcode::Alloca, AllocatedType->getPointerTo(),
                    std::move(Name)),
        AllocatedType(AllocatedType) {}

  Type *getAllocatedType() const { return AllocatedType; }

  static bool classof(const Value *V);

private:
  Type *AllocatedType;
};

/// Loads a first-class value through a pointer.
class LoadInst : public Instruction {
public:
  explicit LoadInst(Value *Ptr, std::string Name = "");

  Value *getPointer() const { return getOperand(0); }

  static bool classof(const Value *V);
};

/// Stores a first-class value through a pointer.
class StoreInst : public Instruction {
public:
  StoreInst(Value *Val, Value *Ptr);

  Value *getStoredValue() const { return getOperand(0); }
  Value *getPointer() const { return getOperand(1); }

  static bool classof(const Value *V);
};

/// Two-operand arithmetic/logic.
class BinaryInst : public Instruction {
public:
  BinaryInst(BinOp Kind, Value *L, Value *R, std::string Name = "");

  BinOp getBinOp() const { return Kind; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }
  bool isFloatOp() const { return Kind >= BinOp::FAdd; }
  bool isDivRem() const {
    return Kind == BinOp::SDiv || Kind == BinOp::SRem || Kind == BinOp::FDiv;
  }

  static const char *getOpName(BinOp K);
  static bool classof(const Value *V);

private:
  BinOp Kind;
};

/// Comparison producing i1. Operand types select int/FP/pointer semantics.
class CmpInst : public Instruction {
public:
  CmpInst(CmpPred Pred, Value *L, Value *R, std::string Name = "");

  CmpPred getPredicate() const { return Pred; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static const char *getPredName(CmpPred P);
  static bool classof(const Value *V);

private:
  CmpPred Pred;
};

/// Value conversion.
class CastInst : public Instruction {
public:
  CastInst(CastKind Kind, Value *V, Type *DestTy, std::string Name = "");

  CastKind getCastKind() const { return Kind; }
  Value *getSource() const { return getOperand(0); }

  static const char *getCastName(CastKind K);
  static bool classof(const Value *V);

private:
  CastKind Kind;
};

/// Pointer arithmetic: yields Ptr displaced by Index elements. When the
/// pointee is an array the result points at its elements (&A[I]); otherwise
/// the result is Ptr + Index * sizeof(pointee).
class GEPInst : public Instruction {
public:
  GEPInst(Value *Ptr, Value *Index, std::string Name = "");

  Value *getPointer() const { return getOperand(0); }
  Value *getIndex() const { return getOperand(1); }
  /// Byte stride of one index step.
  uint64_t getElementSize() const;

  static bool classof(const Value *V);
};

/// cond ? tval : fval.
class SelectInst : public Instruction {
public:
  SelectInst(Value *Cond, Value *TrueV, Value *FalseV,
             std::string Name = "");

  Value *getCondition() const { return getOperand(0); }
  Value *getTrueValue() const { return getOperand(1); }
  Value *getFalseValue() const { return getOperand(2); }

  static bool classof(const Value *V);
};

/// Direct or indirect call. Operand 0 is the callee (a Function or a value
/// of pointer-to-function type); the rest are arguments.
class CallInst : public Instruction {
public:
  CallInst(Value *Callee, std::vector<Value *> Args, std::string Name = "");

  Value *getCallee() const { return getOperand(0); }
  /// Non-null when the callee is a direct Function reference.
  Function *getCalledFunction() const;
  unsigned getNumArgs() const { return getNumOperands() - 1; }
  Value *getArg(unsigned I) const { return getOperand(I + 1); }
  void setArg(unsigned I, Value *V) { setOperand(I + 1, V); }
  bool isIndirect() const { return getCalledFunction() == nullptr; }

  /// The static callee type (through function pointers if needed).
  FunctionType *getCalleeType() const;

  static Type *resultTypeForCallee(Value *Callee);
  static bool classof(const Value *V);

protected:
  CallInst(Opcode Op, Value *Callee, std::vector<Value *> Args,
           std::string Name);
};

/// Call with exceptional continuation: control resumes at the normal
/// destination, or at the unwind destination (whose first instruction must
/// be a LandingPad) when the callee throws. Terminator.
class InvokeInst : public CallInst {
public:
  InvokeInst(Value *Callee, std::vector<Value *> Args,
             BasicBlock *NormalDest, BasicBlock *UnwindDest,
             std::string Name = "");

  BasicBlock *getNormalDest() const { return getSuccessor(0); }
  BasicBlock *getUnwindDest() const { return getSuccessor(1); }

  static bool classof(const Value *V);
};

/// First instruction of an unwind destination; yields the thrown i64.
class LandingPadInst : public Instruction {
public:
  explicit LandingPadInst(Type *I64Ty, std::string Name = "");

  static bool classof(const Value *V);
};

/// Raises an exception carrying an i64 payload. Terminator.
class ThrowInst : public Instruction {
public:
  explicit ThrowInst(Value *Payload);

  Value *getPayload() const { return getOperand(0); }

  static bool classof(const Value *V);
};

/// Unconditional or conditional branch.
class BranchInst : public Instruction {
public:
  explicit BranchInst(BasicBlock *Dest);
  BranchInst(Value *Cond, BasicBlock *TrueDest, BasicBlock *FalseDest);

  bool isConditional() const { return getNumOperands() == 1; }
  Value *getCondition() const {
    assert(isConditional() && "no condition on unconditional branch");
    return getOperand(0);
  }
  BasicBlock *getTrueDest() const { return getSuccessor(0); }
  BasicBlock *getFalseDest() const { return getSuccessor(1); }

  static bool classof(const Value *V);
};

/// Multiway branch on an integer; successor 0 is the default destination.
class SwitchInst : public Instruction {
public:
  SwitchInst(Value *Cond, BasicBlock *DefaultDest);

  Value *getCondition() const { return getOperand(0); }
  BasicBlock *getDefaultDest() const { return getSuccessor(0); }
  void addCase(int64_t Val, BasicBlock *Dest);
  unsigned getNumCases() const { return CaseValues.size(); }
  int64_t getCaseValue(unsigned I) const { return CaseValues[I]; }
  BasicBlock *getCaseDest(unsigned I) const { return getSuccessor(I + 1); }

  static bool classof(const Value *V);

private:
  std::vector<int64_t> CaseValues;
};

/// Function return, optionally with a value.
class ReturnInst : public Instruction {
public:
  explicit ReturnInst(Value *RetVal, Type *VoidTy);

  bool hasReturnValue() const { return getNumOperands() == 1; }
  Value *getReturnValue() const {
    assert(hasReturnValue() && "void return");
    return getOperand(0);
  }

  static bool classof(const Value *V);
};

/// Marks statically unreachable control flow.
class UnreachableInst : public Instruction {
public:
  explicit UnreachableInst(Type *VoidTy);

  static bool classof(const Value *V);
};

} // namespace khaos

#endif // KHAOS_IR_INSTRUCTION_H
