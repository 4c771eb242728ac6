//===- ir/Type.h - KIR type system ------------------------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The KIR type system: void, integers (i1/i8/i32/i64), floats (f32/f64),
/// pointers, fixed arrays and function types. Types are interned in a
/// Context, so pointer equality is type equality.
///
/// Fusion-specific notion: two types are *compatible* (paper §3.3.1) when a
/// value of either can round-trip through the wider one without losing
/// precision. Compatible parameter/return types may be compressed into one.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_IR_TYPE_H
#define KHAOS_IR_TYPE_H

#include "support/Casting.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace khaos {

class Context;

/// Discriminator for the Type class hierarchy.
enum class TypeKind : uint8_t {
  Void,
  Int1,
  Int8,
  Int32,
  Int64,
  Float,
  Double,
  Pointer,
  Array,
  Function,
};

/// Base of the interned type hierarchy.
class Type {
public:
  TypeKind getKind() const { return Kind; }
  Context &getContext() const { return Ctx; }

  bool isVoid() const { return Kind == TypeKind::Void; }
  bool isInteger() const {
    return Kind >= TypeKind::Int1 && Kind <= TypeKind::Int64;
  }
  bool isFloatingPoint() const {
    return Kind == TypeKind::Float || Kind == TypeKind::Double;
  }
  bool isPointer() const { return Kind == TypeKind::Pointer; }
  bool isArray() const { return Kind == TypeKind::Array; }
  bool isFunction() const { return Kind == TypeKind::Function; }
  /// True for types a value can have (excludes void/function/array as SSA
  /// value types; arrays live in memory only).
  bool isFirstClass() const {
    return isInteger() || isFloatingPoint() || isPointer();
  }

  /// Integer bit width; only valid on integer types.
  unsigned getIntegerBitWidth() const;

  /// Size in bytes when stored in memory. Void/function are invalid.
  uint64_t getStoreSize() const;

  /// Pointer-to-this type (interned).
  Type *getPointerTo();

  /// Compatibility for fusion parameter/return compression: both integers,
  /// both floats, or both pointers.
  bool isCompatibleWith(const Type *Other) const;

  /// The wider of two compatible types (the "compressed" type).
  static Type *getCompressedType(Type *A, Type *B);

  /// Human-readable spelling ("i32", "f64*", "[8 x i32]", ...).
  std::string getName() const;

  virtual ~Type() = default;

protected:
  Type(Context &Ctx, TypeKind Kind) : Ctx(Ctx), Kind(Kind) {}

private:
  friend class Context;
  Context &Ctx;
  TypeKind Kind;
};

/// A pointer to a pointee type. All pointers have the same store size (8).
class PointerType : public Type {
public:
  Type *getPointee() const { return Pointee; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Pointer;
  }

private:
  friend class Context;
  PointerType(Context &Ctx, Type *Pointee)
      : Type(Ctx, TypeKind::Pointer), Pointee(Pointee) {}
  Type *Pointee;
};

/// Fixed-length array type; only appears as an alloca/global element type.
class ArrayType : public Type {
public:
  Type *getElementType() const { return Element; }
  uint64_t getNumElements() const { return NumElements; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Array;
  }

private:
  friend class Context;
  ArrayType(Context &Ctx, Type *Element, uint64_t NumElements)
      : Type(Ctx, TypeKind::Array), Element(Element),
        NumElements(NumElements) {}
  Type *Element;
  uint64_t NumElements;
};

/// Function signature: return type, parameter types, optional varargs tail.
class FunctionType : public Type {
public:
  Type *getReturnType() const { return ReturnType; }
  const std::vector<Type *> &getParamTypes() const { return ParamTypes; }
  unsigned getNumParams() const { return ParamTypes.size(); }
  Type *getParamType(unsigned I) const { return ParamTypes[I]; }
  bool isVarArg() const { return VarArg; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Function;
  }

private:
  friend class Context;
  FunctionType(Context &Ctx, Type *ReturnType, std::vector<Type *> ParamTypes,
               bool VarArg)
      : Type(Ctx, TypeKind::Function), ReturnType(ReturnType),
        ParamTypes(std::move(ParamTypes)), VarArg(VarArg) {}
  Type *ReturnType;
  std::vector<Type *> ParamTypes;
  bool VarArg;
};

/// Owns and interns all types (and, transitively, nothing else). One Context
/// may serve many Modules; pointer identity of types holds across them.
///
/// Interning is guarded by a mutex, so Modules in different threads may
/// share one Context (the evaluation pipeline clones each workload's cached
/// frontend module into the artifact's Context and optimizes and
/// obfuscates the clones concurrently).
class Context {
public:
  Context();
  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;
  ~Context();

  Type *getVoidType() { return Primitives[(int)TypeKind::Void].get(); }
  Type *getInt1Type() { return Primitives[(int)TypeKind::Int1].get(); }
  Type *getInt8Type() { return Primitives[(int)TypeKind::Int8].get(); }
  Type *getInt32Type() { return Primitives[(int)TypeKind::Int32].get(); }
  Type *getInt64Type() { return Primitives[(int)TypeKind::Int64].get(); }
  Type *getFloatType() { return Primitives[(int)TypeKind::Float].get(); }
  Type *getDoubleType() { return Primitives[(int)TypeKind::Double].get(); }

  PointerType *getPointerType(Type *Pointee);
  ArrayType *getArrayType(Type *Element, uint64_t NumElements);
  FunctionType *getFunctionType(Type *ReturnType,
                                std::vector<Type *> ParamTypes,
                                bool VarArg = false);

private:
  std::mutex InternMutex;
  std::unique_ptr<Type> Primitives[(int)TypeKind::Pointer];
  std::map<Type *, std::unique_ptr<PointerType>> PointerTypes;
  std::map<std::pair<Type *, uint64_t>, std::unique_ptr<ArrayType>>
      ArrayTypes;
  std::map<std::pair<Type *, std::pair<std::vector<Type *>, bool>>,
           std::unique_ptr<FunctionType>>
      FunctionTypes;
};

} // namespace khaos

#endif // KHAOS_IR_TYPE_H
