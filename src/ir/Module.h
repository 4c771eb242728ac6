//===- ir/Module.h - KIR module ---------------------------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A translation unit: globals + functions + interned constants. The
/// obfuscation passes transform Modules in place; the codegen lowers a
/// Module to a BinaryImage; the VM executes a Module directly.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_IR_MODULE_H
#define KHAOS_IR_MODULE_H

#include "ir/Function.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace khaos {

/// A whole program (the evaluation compiles each workload with LTO-style
/// whole-program linking, matching the paper's single-binary setup).
class Module {
public:
  Module(Context &Ctx, std::string Name)
      : Ctx(Ctx), Name(std::move(Name)) {}
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;
  ~Module();

  Context &getContext() const { return Ctx; }
  const std::string &getName() const { return Name; }

  // Functions.
  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Functions;
  }
  /// Creates a function (definition if blocks are added later, declaration
  /// otherwise). Arguments are materialized from the type's parameters.
  Function *createFunction(const std::string &Name, FunctionType *FTy);
  Function *getFunction(const std::string &Name) const;
  /// Destroys \p F; it must have no remaining uses.
  void eraseFunction(Function *F);
  /// Total instruction count across all functions.
  size_t instructionCount() const;

  // Globals.
  const std::vector<std::unique_ptr<GlobalVariable>> &globals() const {
    return Globals;
  }
  GlobalVariable *createGlobal(const std::string &Name, Type *ValueType);
  GlobalVariable *getGlobal(const std::string &Name) const;

  // Interned constants.
  ConstantInt *getConstantInt(Type *Ty, int64_t V);
  ConstantInt *getInt1(bool V);
  ConstantInt *getInt8(int64_t V);
  ConstantInt *getInt32(int64_t V);
  ConstantInt *getInt64(int64_t V);
  ConstantFP *getConstantFP(Type *Ty, double V);
  ConstantNull *getNullPtr(PointerType *Ty);
  ConstantTaggedFunc *getTaggedFunc(Type *PtrTy, Function *F, unsigned Tag);

  /// Returns the zero value of a first-class type.
  Constant *getZeroValue(Type *Ty);

  /// Deterministically fresh symbol name with the given stem.
  std::string uniqueName(const std::string &Stem);

  /// uniqueName() counter state. cloneModule() copies it into the clone so
  /// that name generation continues identically in both modules — a clone
  /// must be indistinguishable from the module it was copied from, down to
  /// the names later passes would mint.
  const std::map<std::string, unsigned> &nameCounters() const {
    return NameCounters;
  }
  void setNameCounters(std::map<std::string, unsigned> Counters) {
    NameCounters = std::move(Counters);
  }

private:
  Context &Ctx;
  std::string Name;
  std::vector<std::unique_ptr<Function>> Functions;
  std::vector<std::unique_ptr<GlobalVariable>> Globals;

  std::map<std::pair<Type *, int64_t>, std::unique_ptr<ConstantInt>>
      IntConstants;
  std::map<std::pair<Type *, double>, std::unique_ptr<ConstantFP>>
      FPConstants;
  std::map<Type *, std::unique_ptr<ConstantNull>> NullConstants;
  std::map<std::pair<Function *, unsigned>,
           std::unique_ptr<ConstantTaggedFunc>>
      TaggedFuncConstants;
  std::map<std::string, unsigned> NameCounters;
};

} // namespace khaos

#endif // KHAOS_IR_MODULE_H
