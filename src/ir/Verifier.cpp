//===- ir/Verifier.cpp - IR well-formedness checks ------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "analysis/DominatorTree.h"
#include "ir/Module.h"
#include "support/StringUtils.h"

#include <unordered_map>
#include <unordered_set>

using namespace khaos;

namespace {

using GlobalSet = std::unordered_set<const GlobalVariable *>;

GlobalSet globalsOf(const Module &M) {
  GlobalSet Globals;
  for (const auto &G : M.globals())
    Globals.insert(G.get());
  return Globals;
}

/// Per-function verification state.
class FunctionVerifier {
public:
  FunctionVerifier(const Function &F, const GlobalSet &Globals,
                   std::vector<std::string> &Errors)
      : F(F), Globals(Globals), Errors(Errors) {}

  bool run();

private:
  void error(const std::string &Msg) {
    Errors.push_back("in @" + F.getName() + ": " + Msg);
  }

  void checkStructure();
  void checkInstruction(const BasicBlock *BB, const Instruction *I);
  void checkDominance();

  const Function &F;
  const GlobalSet &Globals; ///< The globals of F's module.
  std::vector<std::string> &Errors;
  std::unordered_set<const BasicBlock *> BlockSet;
};

} // namespace

void FunctionVerifier::checkStructure() {
  if (F.blocks().empty())
    return;
  if (!F.getEntryBlock()->predecessors().empty())
    error("entry block has predecessors");
  for (const auto &BB : F.blocks()) {
    if (BB->empty()) {
      error("block '" + BB->getName() + "' is empty");
      continue;
    }
    const Instruction *Term = BB->getTerminator();
    if (!Term)
      error("block '" + BB->getName() + "' lacks a terminator");
    for (size_t I = 0, E = BB->size(); I != E; ++I) {
      const Instruction *Inst = BB->getInst(I);
      if (Inst->getParent() != BB.get())
        error("instruction parent link broken in '" + BB->getName() + "'");
      if (Inst->isTerminator() && I + 1 != E)
        error("terminator in the middle of block '" + BB->getName() + "'");
      if (isa<LandingPadInst>(Inst) && I != 0)
        error("landingpad is not the first instruction of '" +
              BB->getName() + "'");
      checkInstruction(BB.get(), Inst);
    }
  }
}

void FunctionVerifier::checkInstruction(const BasicBlock *BB,
                                        const Instruction *I) {
  // Successors must be blocks of this function.
  for (const BasicBlock *S : I->successors())
    if (!BlockSet.count(S))
      error(formatStr("successor of a terminator in '%s' is foreign",
                      BB->getName().c_str()));

  // Operands must be constants, globals, functions, or locals of F, all of
  // F's module: ~Module forgets operands without editing use lists, so an
  // operand naming another module's value would leave a dangling user in
  // that value's use list. Interned constants carry no owner to check;
  // only Module::get* creates them, each in the module it is called on.
  for (const Value *Op : I->operands()) {
    if (const auto *Arg = dyn_cast<Argument>(Op)) {
      if (Arg->getParent() != &F)
        error("operand argument belongs to another function");
    } else if (const auto *OI = dyn_cast<Instruction>(Op)) {
      if (!OI->getParent() || OI->getParent()->getParent() != &F)
        error("operand instruction belongs to another function");
      if (OI->getType() && OI->getType()->isVoid())
        error("use of a void-typed instruction result");
    } else if (const auto *Fn = dyn_cast<Function>(Op)) {
      if (Fn->getParent() != F.getParent())
        error("operand function @" + Fn->getName() +
              " belongs to another module");
    } else if (const auto *TF = dyn_cast<ConstantTaggedFunc>(Op)) {
      if (TF->getFunction()->getParent() != F.getParent())
        error("tagged-function constant names @" +
              TF->getFunction()->getName() + " of another module");
    } else if (const auto *GV = dyn_cast<GlobalVariable>(Op)) {
      if (!Globals.count(GV))
        error("operand global @" + GV->getName() +
              " belongs to another module");
    }
  }

  switch (I->getOpcode()) {
  case Opcode::Store: {
    const auto *SI = cast<StoreInst>(I);
    const auto *PT = dyn_cast<PointerType>(SI->getPointer()->getType());
    if (!PT || PT->getPointee() != SI->getStoredValue()->getType())
      error("store type mismatch");
    break;
  }
  case Opcode::Call:
  case Opcode::Invoke: {
    const auto *CI = cast<CallInst>(I);
    const FunctionType *FTy = CI->getCalleeType();
    if (CI->getNumArgs() < FTy->getNumParams() ||
        (CI->getNumArgs() > FTy->getNumParams() && !FTy->isVarArg())) {
      error("call argument count mismatch for callee type " +
            FTy->getName());
      break;
    }
    for (unsigned A = 0, E = FTy->getNumParams(); A != E; ++A)
      if (CI->getArg(A)->getType() != FTy->getParamType(A))
        error(formatStr("call argument %u type mismatch", A));
    if (const auto *IV = dyn_cast<InvokeInst>(I))
      if (IV->getUnwindDest()->empty() ||
          !isa<LandingPadInst>(IV->getUnwindDest()->front()))
        error("invoke unwind destination lacks a landingpad");
    break;
  }
  case Opcode::Br: {
    const auto *BR = cast<BranchInst>(I);
    if (BR->isConditional() &&
        BR->getCondition()->getType()->getKind() != TypeKind::Int1)
      error("conditional branch on non-i1 value");
    break;
  }
  case Opcode::Ret: {
    const auto *RI = cast<ReturnInst>(I);
    Type *RetTy = F.getReturnType();
    if (RetTy->isVoid()) {
      if (RI->hasReturnValue())
        error("returning a value from a void function");
    } else if (!RI->hasReturnValue()) {
      error("missing return value");
    } else if (RI->getReturnValue()->getType() != RetTy) {
      error("return value type mismatch");
    }
    break;
  }
  default:
    break;
  }
}

void FunctionVerifier::checkDominance() {
  DominatorTree DT(F);
  // Each instruction's position in its block, for the same-block order.
  std::unordered_map<const Instruction *, size_t> Pos;
  Pos.reserve(F.instructionCount());
  for (const auto &BB : F.blocks())
    for (size_t Idx = 0, E = BB->size(); Idx != E; ++Idx)
      Pos.emplace(BB->getInst(Idx), Idx);

  for (const auto &BB : F.blocks()) {
    // No execution reaches an unreachable block, so its cross-block uses
    // are not dominance-checked (LLVM's rule); same-block order still is.
    const bool Reachable = DT.isReachable(BB.get());
    for (size_t Idx = 0, E = BB->size(); Idx != E; ++Idx) {
      const Instruction *I = BB->getInst(Idx);
      for (const Value *Op : I->operands()) {
        const auto *Def = dyn_cast<Instruction>(Op);
        if (!Def)
          continue;
        const BasicBlock *DefBB = Def->getParent();
        if (DefBB == BB.get()) {
          if (Pos.find(Def)->second >= Idx)
            error(formatStr("use before def inside block '%s'",
                            BB->getName().c_str()));
        } else if (Reachable && !DT.dominates(DefBB, BB.get())) {
          error(formatStr("use in '%s' not dominated by def in '%s'",
                          BB->getName().c_str(),
                          DefBB ? DefBB->getName().c_str() : "<detached>"));
        }
      }
    }
  }
}

bool FunctionVerifier::run() {
  size_t Before = Errors.size();
  for (const auto &BB : F.blocks())
    BlockSet.insert(BB.get());
  checkStructure();
  if (Errors.size() == Before && !F.blocks().empty())
    checkDominance();
  return Errors.size() == Before;
}

static bool verifyFunctionIn(const Function &F, const GlobalSet &Globals,
                             std::vector<std::string> &Errors) {
  if (F.isDeclaration())
    return true;
  return FunctionVerifier(F, Globals, Errors).run();
}

bool khaos::verifyFunction(const Function &F,
                           std::vector<std::string> &Errors) {
  return verifyFunctionIn(F, globalsOf(*F.getParent()), Errors);
}

bool khaos::verifyModule(const Module &M, std::vector<std::string> &Errors) {
  size_t Before = Errors.size();
  const GlobalSet Globals = globalsOf(M);
  for (const auto &F : M.functions())
    verifyFunctionIn(*F, Globals, Errors);
  return Errors.size() == Before;
}

std::vector<std::string> khaos::verifyModule(const Module &M) {
  std::vector<std::string> Errors;
  verifyModule(M, Errors);
  return Errors;
}
