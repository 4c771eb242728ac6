//===- codegen/BinaryImage.h - Lowered program image ------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "binary" the diffing tools diff: machine functions laid out at
/// 16-byte-aligned addresses with a symbol table and data relocations
/// (whose addends carry fusion's pointer tags, paper appendix A.1).
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_CODEGEN_BINARYIMAGE_H
#define KHAOS_CODEGEN_BINARYIMAGE_H

#include "codegen/TargetISA.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace khaos {

/// One machine instruction. Operand detail is kept at the granularity the
/// diffing features need: register/immediate/memory shape plus an optional
/// symbol reference (call target or global).
struct MInst {
  MOp Op = MOp::Nop;
  bool HasMemOperand = false;
  bool HasImmediate = false;
  int32_t SymId = -1; ///< Index into BinaryImage::Symbols, or -1.
  int64_t Imm = 0;    ///< Immediate value when HasImmediate.

  MInst() = default;
  explicit MInst(MOp Op, bool Mem = false, bool Imm = false,
                 int32_t SymId = -1, int64_t ImmVal = 0)
      : Op(Op), HasMemOperand(Mem), HasImmediate(Imm), SymId(SymId),
        Imm(ImmVal) {}
};

/// One machine basic block.
struct MBlock {
  std::string Name;
  std::vector<MInst> Insts;
  std::vector<uint32_t> Succs; ///< Indices into MFunction::Blocks.
};

/// One lowered function.
struct MFunction {
  std::string Name;
  uint64_t Address = 0; ///< 16-byte aligned.
  bool Exported = false;
  std::vector<std::string> Origins; ///< Provenance for pairing judgment.
  std::vector<MBlock> Blocks;

  size_t instructionCount() const {
    size_t N = 0;
    for (const MBlock &B : Blocks)
      N += B.Insts.size();
    return N;
  }
};

/// A data relocation: a pointer-sized slot referencing a function symbol.
/// The addend carries fusion's tag bits.
struct DataRelocation {
  std::string GlobalName;
  uint64_t Offset = 0;
  int32_t SymId = -1;
  int64_t Addend = 0;
};

/// The lowered program.
struct BinaryImage {
  std::string Name;
  std::vector<MFunction> Functions;
  std::vector<std::string> Symbols;
  std::vector<DataRelocation> DataRelocs;
  std::map<std::string, uint32_t> FunctionIndex; ///< Name -> Functions idx.

  /// Interns \p S into Symbols, O(1) amortized per call via SymbolIndex
  /// (rebuilt lazily when Symbols was filled directly, e.g. by the wire
  /// codec). Returns the existing id for a known symbol.
  int32_t internSymbol(const std::string &S);
  const MFunction *findFunction(const std::string &Name) const;

  /// Whole-image opcode histogram (length NumMOpcodes).
  std::vector<double> opcodeHistogram() const;

  /// Disassembly-style dump for debugging and the examples.
  std::string disassemble() const;

private:
  /// Derived lookup index over Symbols; never serialized.
  std::unordered_map<std::string, int32_t> SymbolIndex;
};

} // namespace khaos

#endif // KHAOS_CODEGEN_BINARYIMAGE_H
