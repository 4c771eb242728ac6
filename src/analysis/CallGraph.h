//===- analysis/CallGraph.h - Module call graph ----------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct-call graph over a module. The fusion primitive refuses to
/// aggregate two functions with a direct call relationship (recursion
/// blow-up, paper §3.3.1).
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_ANALYSIS_CALLGRAPH_H
#define KHAOS_ANALYSIS_CALLGRAPH_H

#include <map>
#include <set>

namespace khaos {

class Function;
class Module;

/// Call graph of one module.
class CallGraph {
public:
  explicit CallGraph(const Module &M);

  /// Functions \p F calls directly (deduplicated).
  const std::set<Function *> &getCallees(const Function *F) const;

  /// True when A calls B or B calls A directly.
  bool haveDirectCallRelation(const Function *A, const Function *B) const;

private:
  std::map<const Function *, std::set<Function *>> Callees;
  static const std::set<Function *> EmptySet;
};

} // namespace khaos

#endif // KHAOS_ANALYSIS_CALLGRAPH_H
