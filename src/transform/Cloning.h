//===- transform/Cloning.h - IR cloning utilities ---------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Block cloning with value remapping, shared by the inliner and the bogus
/// control flow obfuscation.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_TRANSFORM_CLONING_H
#define KHAOS_TRANSFORM_CLONING_H

#include <map>
#include <memory>
#include <vector>

namespace khaos {

class BasicBlock;
class Function;
class Module;
class Value;

/// Clones every block of \p Src into \p Dst. \p VMap must already map
/// Src's arguments to replacement values; it is extended with every cloned
/// instruction and block mapping. Cloned blocks are appended to \p Dst and
/// returned in source order. Operands and successors are remapped through
/// VMap (identity when absent).
std::vector<BasicBlock *>
cloneFunctionBlocks(const Function &Src, Function &Dst,
                    std::map<const Value *, Value *> &VMap);

/// Deep-copies \p Src into a fresh Module that shares Src's Context (types
/// are interned per Context, so sharing it makes the copy remap-free for
/// types; Context interning is mutex-guarded, so clones may be transformed
/// concurrently). Function/global/block order, all symbol and value names,
/// per-function flags, provenance and the uniqueName() counters are
/// preserved exactly: a pass run on the clone produces byte-identical
/// printed IR to the same pass run on \p Src. Constants are re-interned in
/// the new module, so the clone's lifetime is independent of \p Src — only
/// the Context must outlive it.
///
/// This is what lets the evaluation pipeline compile each workload once
/// (its Frontend stage) and hand every stage and every mode its own
/// mutable copy.
///
/// Concurrency: the clone only reads \p Src (Instruction::clone() registers
/// no uses, so not even Src's use lists are written), and any number of
/// threads may clone one module at once while nobody mutates it.
/// EvalPipeline's cells clone their workload's shared frontend module this
/// way, without a lock.
///
/// Each clone value lists its users in (function, block, instruction,
/// operand slot) order, and constants are interned in the clone in the
/// order that walk first meets them.
std::unique_ptr<Module> cloneModule(const Module &Src);

} // namespace khaos

#endif // KHAOS_TRANSFORM_CLONING_H
