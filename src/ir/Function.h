//===- ir/Function.h - KIR function -----------------------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functions own their blocks and arguments. Besides the usual structure,
/// each function carries the metadata the obfuscation pipeline and the
/// evaluation harness need: export/linkage flags, an obfuscation opt-out,
/// and a provenance list (which original functions this function's code came
/// from) used by the paper's relaxed pairing judgment.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_IR_FUNCTION_H
#define KHAOS_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "ir/Value.h"

#include <memory>
#include <string>
#include <vector>

namespace khaos {

class Module;

/// A function definition or declaration.
class Function : public Value {
public:
  FunctionType *getFunctionType() const {
    return cast<FunctionType>(
        cast<PointerType>(getType())->getPointee());
  }
  Type *getReturnType() const { return getFunctionType()->getReturnType(); }
  bool isVarArg() const { return getFunctionType()->isVarArg(); }

  Module *getParent() const { return Parent; }

  // Arguments.
  unsigned arg_size() const { return Args.size(); }
  Argument *getArg(unsigned I) const { return Args[I].get(); }
  const std::vector<std::unique_ptr<Argument>> &args() const { return Args; }

  // Blocks.
  bool isDeclaration() const { return Blocks.empty(); }
  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }
  size_t size() const { return Blocks.size(); }
  BasicBlock *getEntryBlock() const {
    assert(!Blocks.empty() && "declaration has no entry block");
    return Blocks.front().get();
  }

  /// Appends a new block and returns it.
  BasicBlock *addBlock(const std::string &Name);
  /// Inserts a new block immediately after \p After.
  BasicBlock *addBlockAfter(BasicBlock *After, const std::string &Name);
  /// Adopts \p BB (e.g. moved from another function).
  BasicBlock *adoptBlock(std::unique_ptr<BasicBlock> BB);
  /// Unlinks \p BB without destroying it.
  std::unique_ptr<BasicBlock> takeBlock(BasicBlock *BB);
  /// Unlinks and destroys \p BB. Instructions must be unreferenced from
  /// outside the block.
  void eraseBlock(BasicBlock *BB);
  /// Index of \p BB in the block list; asserts membership.
  size_t blockIndex(const BasicBlock *BB) const;

  /// Total instruction count across all blocks.
  size_t instructionCount() const;

  // Flags.
  bool isExported() const { return Exported; }
  void setExported(bool E) { Exported = E; }
  bool isNoObfuscate() const { return NoObfuscate; }
  void setNoObfuscate(bool N) { NoObfuscate = N; }
  /// sepFuncs carry noinline (as in the paper's LLVM extractor): letting
  /// the optimizer inline them back would undo the fission.
  bool isNoInline() const { return NoInline; }
  void setNoInline(bool N) { NoInline = N; }
  /// Marks VM-provided intrinsics (printf, setjmp, malloc, ...).
  bool isIntrinsic() const { return Intrinsic; }
  void setIntrinsic(bool I) { Intrinsic = I; }

  /// Provenance: names of the pre-obfuscation functions whose code this
  /// function (partly) contains. A fresh function's provenance is itself.
  const std::vector<std::string> &getOrigins() const { return Origins; }
  void setOrigins(std::vector<std::string> O) { Origins = std::move(O); }

  /// True if any use is not a direct callee slot (i.e. the address escapes).
  bool hasAddressTaken() const;

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Function;
  }

  ~Function() override;

private:
  friend class Module;
  Function(PointerType *PtrToFnTy, std::string Name, Module *Parent);

  Module *Parent;
  std::vector<std::unique_ptr<Argument>> Args;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  bool Exported = false;
  bool NoObfuscate = false;
  bool NoInline = false;
  bool Intrinsic = false;
  std::vector<std::string> Origins;
};

} // namespace khaos

#endif // KHAOS_IR_FUNCTION_H
