//===- ir/Verifier.h - IR well-formedness checks ----------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and dominance verification run after every front-end build
/// and after every transformation/obfuscation pass in tests. Obfuscation is
/// only trusted when the verifier stays green.
///
/// The dominance rule is LLVM's, checked against analysis/DominatorTree:
/// an operand defined in another block must come from a block that
/// dominates the use's block, and one defined in the same block must come
/// earlier in it. Uses inside blocks unreachable from the entry get only
/// the same-block check, because no execution reaches them; a reachable
/// block is judged by its reachable predecessors alone, so dead blocks
/// branching into live code are not errors.
///
/// Every operand must belong to the function's own module (arguments and
/// instructions to the function itself), because module teardown drops
/// the operands without editing use lists.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_IR_VERIFIER_H
#define KHAOS_IR_VERIFIER_H

#include <string>
#include <vector>

namespace khaos {

class Module;
class Function;

/// Verifies \p F; appends human-readable problems to \p Errors. Returns
/// true when no problems were found.
bool verifyFunction(const Function &F, std::vector<std::string> &Errors);

/// Verifies all definitions in \p M. Returns true when clean.
bool verifyModule(const Module &M, std::vector<std::string> &Errors);

/// Convenience wrapper; returns the problems (empty when clean).
std::vector<std::string> verifyModule(const Module &M);

} // namespace khaos

#endif // KHAOS_IR_VERIFIER_H
