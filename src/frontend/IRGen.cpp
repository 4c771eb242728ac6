//===- frontend/IRGen.cpp - MiniC to KIR lowering -------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"

#include "frontend/Parser.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/StringUtils.h"

#include <cassert>
#include <map>
#include <set>

using namespace khaos;
using namespace khaos::minic;

namespace {

/// A typed rvalue.
struct RValue {
  Value *V = nullptr;
  CType Ty;
};

/// A typed lvalue (address of the object).
struct LValue {
  Value *Addr = nullptr;
  CType Ty; ///< Type of the object, not of the address.
};

/// Sets \p K to the binop of MiniC arithmetic operator \p Op, the FP
/// variant when \p IsFP. Returns the error to report instead when KIR has
/// no binop for \p Op or C does not define it on floating operands.
const char *arithBinOp(BinaryOp Op, bool IsFP, BinOp &K) {
  switch (Op) {
  case BinaryOp::Add:
    K = IsFP ? BinOp::FAdd : BinOp::Add;
    break;
  case BinaryOp::Sub:
    K = IsFP ? BinOp::FSub : BinOp::Sub;
    break;
  case BinaryOp::Mul:
    K = IsFP ? BinOp::FMul : BinOp::Mul;
    break;
  case BinaryOp::Div:
    K = IsFP ? BinOp::FDiv : BinOp::SDiv;
    break;
  case BinaryOp::Rem:
    K = BinOp::SRem;
    break;
  case BinaryOp::And:
    K = BinOp::And;
    break;
  case BinaryOp::Or:
    K = BinOp::Or;
    break;
  case BinaryOp::Xor:
    K = BinOp::Xor;
    break;
  case BinaryOp::Shl:
    K = BinOp::Shl;
    break;
  case BinaryOp::Shr:
    K = BinOp::AShr;
    break;
  default:
    return "unsupported binary operator";
  }
  if (IsFP && (K == BinOp::SRem || K == BinOp::Shl || K == BinOp::AShr))
    return "invalid FP operation";
  return nullptr;
}

/// The predicate of MiniC comparison operator \p Op.
CmpPred cmpPredOf(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
    return CmpPred::SLT;
  case BinaryOp::Le:
    return CmpPred::SLE;
  case BinaryOp::Gt:
    return CmpPred::SGT;
  case BinaryOp::Ge:
    return CmpPred::SGE;
  case BinaryOp::Eq:
    return CmpPred::EQ;
  default:
    return CmpPred::NE;
  }
}

class IRGenImpl {
public:
  IRGenImpl(const Program &P, Context &Ctx, const std::string &ModuleName,
            std::string &Error)
      : P(P), Ctx(Ctx), M(std::make_unique<Module>(Ctx, ModuleName)),
        B(*M), Error(Error) {}

  std::unique_ptr<Module> run();

private:
  // Diagnostics.
  void fail(int Line, const std::string &Msg) {
    if (Error.empty())
      Error = formatStr("line %d: %s", Line, Msg.c_str());
  }
  bool hadError() const { return !Error.empty(); }

  // Types.
  Type *irType(const CType &T);
  FunctionType *irSig(const FuncSig &S);
  static CType commonType(const CType &A, const CType &B);
  RValue convert(RValue V, const CType &To);

  // Declarations.
  void declareGlobals();
  void declareFunctions();
  Function *getOrDeclareIntrinsic(const std::string &Name);
  void genFunctionBody(const FunctionDecl &FD);

  // Scope.
  struct ScopedVar {
    Value *Addr = nullptr;
    CType Ty;
  };
  ScopedVar *lookup(const std::string &Name);
  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }

  // Statements.
  void genStmt(const Stmt *S);
  void genBlock(const BlockStmt *S);
  void genDecl(const DeclStmt *S);
  void genIf(const IfStmt *S);
  void genWhile(const WhileStmt *S);
  void genDoWhile(const DoWhileStmt *S);
  void genFor(const ForStmt *S);
  void genSwitch(const SwitchStmt *S);
  void genTry(const TryStmt *S);
  void genThrow(const ThrowStmt *S);
  void genReturn(const ReturnStmt *S);
  void genGoto(const GotoStmt *S);
  void genLabel(const LabelStmt *S);

  /// The block for a function-scoped label, created on first mention so
  /// forward gotos work.
  BasicBlock *getLabelBlock(const std::string &Name);

  // Expressions.
  RValue genExpr(const Expr *E);
  LValue genLValue(const Expr *E);
  RValue genBinary(const BinaryExpr *E);
  RValue genLogical(const BinaryExpr *E);
  RValue genCall(const CallExpr *E);
  RValue genCondition(const Expr *E); ///< As i1.
  RValue loadLValue(const LValue &LV);

  /// Emits a call that may unwind: inside a try it becomes an invoke whose
  /// normal destination continues the current block.
  Value *emitCallMaybeInvoke(Value *Callee, std::vector<Value *> Args,
                             bool CanThrow);

  /// Terminates the current block if it is still open.
  void ensureTerminated(BasicBlock *Next) {
    if (!B.blockTerminated())
      B.createBr(Next);
  }

  const Program &P;
  Context &Ctx;
  std::unique_ptr<Module> M;
  IRBuilder B;
  std::string &Error;

  // Per-function state.
  Function *CurFn = nullptr;
  const FunctionDecl *CurDecl = nullptr;
  BasicBlock *AllocaBlock = nullptr;
  std::vector<std::map<std::string, ScopedVar>> Scopes;
  std::vector<BasicBlock *> BreakTargets;
  std::vector<BasicBlock *> ContinueTargets;
  std::vector<BasicBlock *> LandingPads; ///< Innermost try handler.
  std::map<std::string, BasicBlock *> LabelBlocks; ///< Function-scoped.
  std::set<std::string> DefinedLabels;
  std::map<std::string, int> PendingGotos; ///< Label -> first goto line.
  std::map<std::string, GlobalVariable *> StringLiterals;
  std::map<std::string, const FunctionDecl *> FunctionDecls;
};

} // namespace

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

Type *IRGenImpl::irType(const CType &T) {
  Type *Base = nullptr;
  if (T.Sig) {
    Base = Ctx.getPointerType(irSig(*T.Sig));
  } else {
    switch (T.Base) {
    case BaseType::Void:
      // `void*` has pointee i8.
      Base = T.PtrDepth > 0 ? Ctx.getInt8Type() : Ctx.getVoidType();
      break;
    case BaseType::Char:
      Base = Ctx.getInt8Type();
      break;
    case BaseType::Int:
      Base = Ctx.getInt32Type();
      break;
    case BaseType::Long:
      Base = Ctx.getInt64Type();
      break;
    case BaseType::Float:
      Base = Ctx.getFloatType();
      break;
    case BaseType::Double:
      Base = Ctx.getDoubleType();
      break;
    }
    if (T.PtrDepth > 0)
      for (int I = 0; I != T.PtrDepth; ++I)
        Base = Ctx.getPointerType(Base);
  }
  if (T.Sig)
    for (int I = 0; I != T.PtrDepth; ++I)
      Base = Ctx.getPointerType(Base);
  if (T.isArray())
    Base = Ctx.getArrayType(Base, (uint64_t)T.ArraySize);
  return Base;
}

FunctionType *IRGenImpl::irSig(const FuncSig &S) {
  std::vector<Type *> Params;
  for (const CType &PT : S.Params)
    Params.push_back(irType(PT.decayed()));
  return Ctx.getFunctionType(irType(S.Ret), std::move(Params), S.VarArg);
}

CType IRGenImpl::commonType(const CType &A, const CType &B) {
  CType DA = A.decayed(), DB = B.decayed();
  if (DA.isPointerLike())
    return DA;
  if (DB.isPointerLike())
    return DB;
  auto Rank = [](BaseType T) {
    switch (T) {
    case BaseType::Double:
      return 5;
    case BaseType::Float:
      return 4;
    case BaseType::Long:
      return 3;
    default:
      return 2; // char/int promote to int.
    }
  };
  int RA = Rank(DA.Base), RB = Rank(DB.Base);
  BaseType Winner = RA >= RB ? DA.Base : DB.Base;
  if (Winner == BaseType::Char)
    Winner = BaseType::Int;
  return CType::scalar(Winner);
}

RValue IRGenImpl::convert(RValue V, const CType &To) {
  Type *DstTy = irType(To.decayed());
  if (V.V->getType() == DstTy) {
    V.Ty = To.decayed();
    return V;
  }
  return {B.createConvert(V.V, DstTy), To.decayed()};
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

void IRGenImpl::declareGlobals() {
  for (const GlobalDecl &G : P.Globals) {
    Type *VT = irType(G.Ty);
    if (M->getGlobal(G.Name)) {
      fail(G.Line, "duplicate global '" + G.Name + "'");
      return;
    }
    GlobalVariable *GV = M->createGlobal(G.Name, VT);
    // Literal initializers (int/float literals, possibly negated, or
    // function names for function pointers).
    std::vector<Constant *> Init;
    for (const ExprPtr &E : G.Init) {
      const Expr *Cur = E.get();
      bool Neg = false;
      if (Cur->Kind == ExprKind::Unary) {
        const auto *U = static_cast<const UnaryExpr *>(Cur);
        if (U->Op == UnaryOp::Neg) {
          Neg = true;
          Cur = U->Sub.get();
        }
      }
      Type *ElemTy = VT;
      if (auto *AT = dyn_cast<ArrayType>(VT))
        ElemTy = AT->getElementType();
      if (Cur->Kind == ExprKind::IntLit) {
        int64_t Val = static_cast<const IntLitExpr *>(Cur)->Value;
        if (Neg)
          Val = -Val;
        if (ElemTy->isFloatingPoint())
          Init.push_back(M->getConstantFP(ElemTy, (double)Val));
        else
          Init.push_back(M->getConstantInt(ElemTy, Val));
      } else if (Cur->Kind == ExprKind::FloatLit) {
        double Val = static_cast<const FloatLitExpr *>(Cur)->Value;
        if (Neg)
          Val = -Val;
        Init.push_back(M->getConstantFP(ElemTy, Val));
      } else if (Cur->Kind == ExprKind::VarRef) {
        // Function address in a global initializer.
        const std::string &FName =
            static_cast<const VarRefExpr *>(Cur)->Name;
        Function *F = M->getFunction(FName);
        if (!F) {
          fail(G.Line, "global initializer references unknown function '" +
                           FName + "'");
          return;
        }
        Init.push_back(M->getTaggedFunc(ElemTy, F, 0));
      } else {
        fail(G.Line, "unsupported global initializer");
        return;
      }
    }
    GV->setInitializer(std::move(Init));
  }
}

void IRGenImpl::declareFunctions() {
  for (const FunctionDecl &FD : P.Functions) {
    if (Function *Existing = M->getFunction(FD.Name)) {
      // Redeclaration: a definition after a prototype un-marks the
      // intrinsic assumption made for bodiless declarations.
      if (FD.Body) {
        Existing->setIntrinsic(false);
        FunctionDecls[FD.Name] = &FD;
      }
      continue;
    }
    Function *F = M->createFunction(FD.Name, irSig(FD.Sig));
    F->setExported(FD.IsExported || FD.Name == "main");
    if (FD.IsExtern && !FD.Body)
      F->setIntrinsic(true); // Externs resolve to VM intrinsics.
    for (unsigned I = 0, E = F->arg_size(); I != E; ++I)
      if (I < FD.ParamNames.size() && !FD.ParamNames[I].empty())
        F->getArg(I)->setName(FD.ParamNames[I]);
    FunctionDecls[FD.Name] = &FD;
  }
}

Function *IRGenImpl::getOrDeclareIntrinsic(const std::string &Name) {
  if (Function *F = M->getFunction(Name))
    return F;
  Type *I8Ptr = Ctx.getPointerType(Ctx.getInt8Type());
  Type *I32 = Ctx.getInt32Type();
  Type *I64 = Ctx.getInt64Type();
  Type *I64Ptr = Ctx.getPointerType(I64);
  Type *VoidTy = Ctx.getVoidType();
  FunctionType *FTy = nullptr;
  if (Name == "printf")
    FTy = Ctx.getFunctionType(I32, {I8Ptr}, /*VarArg=*/true);
  else if (Name == "putchar" || Name == "abs")
    FTy = Ctx.getFunctionType(I32, {I32});
  else if (Name == "puts" || Name == "strlen")
    FTy = Ctx.getFunctionType(Name == "puts" ? I32 : I64, {I8Ptr});
  else if (Name == "malloc")
    FTy = Ctx.getFunctionType(I8Ptr, {I64});
  else if (Name == "free")
    FTy = Ctx.getFunctionType(VoidTy, {I8Ptr});
  else if (Name == "setjmp")
    FTy = Ctx.getFunctionType(I32, {I64Ptr});
  else if (Name == "longjmp")
    FTy = Ctx.getFunctionType(VoidTy, {I64Ptr, I32});
  else if (Name == "__khaos_throw")
    FTy = Ctx.getFunctionType(VoidTy, {I64});
  if (!FTy)
    return nullptr;
  Function *F = M->createFunction(Name, FTy);
  F->setIntrinsic(true);
  return F;
}

//===----------------------------------------------------------------------===//
// Function bodies
//===----------------------------------------------------------------------===//

void IRGenImpl::genFunctionBody(const FunctionDecl &FD) {
  Function *F = M->getFunction(FD.Name);
  assert(F && "function not declared");
  CurFn = F;
  CurDecl = &FD;
  Scopes.clear();
  BreakTargets.clear();
  ContinueTargets.clear();
  LandingPads.clear();
  LabelBlocks.clear();
  DefinedLabels.clear();
  PendingGotos.clear();

  BasicBlock *Entry = F->addBlock("entry");
  AllocaBlock = Entry;
  B.setInsertPoint(Entry);
  pushScope();

  // Shadow allocas for parameters so they are addressable and mutable.
  for (unsigned I = 0, E = F->arg_size(); I != E; ++I) {
    Argument *A = F->getArg(I);
    auto *Slot = B.createAlloca(A->getType(), A->getName() + ".addr");
    B.createStore(A, Slot);
    CType PTy = FD.Sig.Params[I].decayed();
    Scopes.back()[FD.ParamNames[I]] = {Slot, PTy};
  }

  genStmt(FD.Body.get());

  // Every goto must have found its label by the end of the function.
  if (!PendingGotos.empty() && !hadError()) {
    auto &P = *PendingGotos.begin();
    fail(P.second, "goto to undefined label '" + P.first + "'");
  }

  // Implicit return when control falls off the end.
  if (!B.blockTerminated()) {
    Type *RetTy = F->getReturnType();
    if (RetTy->isVoid())
      B.createRetVoid();
    else
      B.createRet(M->getZeroValue(RetTy));
  }
  popScope();
  CurFn = nullptr;
}

IRGenImpl::ScopedVar *IRGenImpl::lookup(const std::string &Name) {
  for (auto It = Scopes.rbegin(), E = Scopes.rend(); It != E; ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return &Found->second;
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void IRGenImpl::genStmt(const Stmt *S) {
  if (!S || hadError())
    return;
  // Skip statements in already-terminated blocks (e.g. code after return).
  // Labels are exempt: they open a fresh block, so code after a goto or
  // return stays reachable through its label.
  if (B.blockTerminated() && S->Kind != StmtKind::Block &&
      S->Kind != StmtKind::Label)
    return;
  switch (S->Kind) {
  case StmtKind::Block:
    genBlock(static_cast<const BlockStmt *>(S));
    break;
  case StmtKind::ExprStmt:
    if (const Expr *E = static_cast<const ExprStmt *>(S)->E.get())
      genExpr(E);
    break;
  case StmtKind::Decl:
    genDecl(static_cast<const DeclStmt *>(S));
    break;
  case StmtKind::If:
    genIf(static_cast<const IfStmt *>(S));
    break;
  case StmtKind::While:
    genWhile(static_cast<const WhileStmt *>(S));
    break;
  case StmtKind::DoWhile:
    genDoWhile(static_cast<const DoWhileStmt *>(S));
    break;
  case StmtKind::For:
    genFor(static_cast<const ForStmt *>(S));
    break;
  case StmtKind::Return:
    genReturn(static_cast<const ReturnStmt *>(S));
    break;
  case StmtKind::Break:
    if (BreakTargets.empty())
      fail(S->Line, "'break' outside loop/switch");
    else
      B.createBr(BreakTargets.back());
    break;
  case StmtKind::Continue:
    if (ContinueTargets.empty())
      fail(S->Line, "'continue' outside loop");
    else
      B.createBr(ContinueTargets.back());
    break;
  case StmtKind::Switch:
    genSwitch(static_cast<const SwitchStmt *>(S));
    break;
  case StmtKind::Try:
    genTry(static_cast<const TryStmt *>(S));
    break;
  case StmtKind::Throw:
    genThrow(static_cast<const ThrowStmt *>(S));
    break;
  case StmtKind::Goto:
    genGoto(static_cast<const GotoStmt *>(S));
    break;
  case StmtKind::Label:
    genLabel(static_cast<const LabelStmt *>(S));
    break;
  }
}

void IRGenImpl::genBlock(const BlockStmt *S) {
  pushScope();
  for (const StmtPtr &Child : S->Stmts)
    genStmt(Child.get());
  popScope();
}

void IRGenImpl::genDecl(const DeclStmt *S) {
  Type *VT = irType(S->Ty);
  // Allocas go to the current block (not hoisted): fission's lazy
  // allocation reasoning matches the paper when defs sit near their uses;
  // the entry block still receives most of them in practice.
  auto *Slot = B.createAlloca(VT, S->Name);
  Scopes.back()[S->Name] = {Slot, S->Ty};
  if (S->Init) {
    RValue Init = genExpr(S->Init.get());
    if (hadError())
      return;
    Init = convert(Init, S->Ty.decayed());
    if (S->Ty.isArray()) {
      fail(S->Line, "array initializers are not supported for locals");
      return;
    }
    B.createStore(Init.V, Slot);
  }
}

void IRGenImpl::genIf(const IfStmt *S) {
  RValue C = genCondition(S->Cond.get());
  if (hadError())
    return;
  BasicBlock *ThenBB = CurFn->addBlock("if.then");
  BasicBlock *EndBB = CurFn->addBlock("if.end");
  BasicBlock *ElseBB = S->Else ? CurFn->addBlock("if.else") : EndBB;
  B.createCondBr(C.V, ThenBB, ElseBB);

  B.setInsertPoint(ThenBB);
  genStmt(S->Then.get());
  ensureTerminated(EndBB);

  if (S->Else) {
    B.setInsertPoint(ElseBB);
    genStmt(S->Else.get());
    ensureTerminated(EndBB);
  }
  B.setInsertPoint(EndBB);
}

void IRGenImpl::genWhile(const WhileStmt *S) {
  BasicBlock *CondBB = CurFn->addBlock("while.cond");
  BasicBlock *BodyBB = CurFn->addBlock("while.body");
  BasicBlock *EndBB = CurFn->addBlock("while.end");
  B.createBr(CondBB);

  B.setInsertPoint(CondBB);
  RValue C = genCondition(S->Cond.get());
  if (hadError())
    return;
  B.createCondBr(C.V, BodyBB, EndBB);

  B.setInsertPoint(BodyBB);
  BreakTargets.push_back(EndBB);
  ContinueTargets.push_back(CondBB);
  genStmt(S->Body.get());
  BreakTargets.pop_back();
  ContinueTargets.pop_back();
  ensureTerminated(CondBB);

  B.setInsertPoint(EndBB);
}

void IRGenImpl::genDoWhile(const DoWhileStmt *S) {
  BasicBlock *BodyBB = CurFn->addBlock("do.body");
  BasicBlock *CondBB = CurFn->addBlock("do.cond");
  BasicBlock *EndBB = CurFn->addBlock("do.end");
  B.createBr(BodyBB);

  B.setInsertPoint(BodyBB);
  BreakTargets.push_back(EndBB);
  ContinueTargets.push_back(CondBB);
  genStmt(S->Body.get());
  BreakTargets.pop_back();
  ContinueTargets.pop_back();
  ensureTerminated(CondBB);

  B.setInsertPoint(CondBB);
  RValue C = genCondition(S->Cond.get());
  if (hadError())
    return;
  B.createCondBr(C.V, BodyBB, EndBB);

  B.setInsertPoint(EndBB);
}

void IRGenImpl::genFor(const ForStmt *S) {
  pushScope();
  if (S->Init)
    genStmt(S->Init.get());
  BasicBlock *CondBB = CurFn->addBlock("for.cond");
  BasicBlock *BodyBB = CurFn->addBlock("for.body");
  BasicBlock *StepBB = CurFn->addBlock("for.step");
  BasicBlock *EndBB = CurFn->addBlock("for.end");
  B.createBr(CondBB);

  B.setInsertPoint(CondBB);
  if (S->Cond) {
    RValue C = genCondition(S->Cond.get());
    if (hadError())
      return;
    B.createCondBr(C.V, BodyBB, EndBB);
  } else {
    B.createBr(BodyBB);
  }

  B.setInsertPoint(BodyBB);
  BreakTargets.push_back(EndBB);
  ContinueTargets.push_back(StepBB);
  genStmt(S->Body.get());
  BreakTargets.pop_back();
  ContinueTargets.pop_back();
  ensureTerminated(StepBB);

  B.setInsertPoint(StepBB);
  if (S->Step)
    genExpr(S->Step.get());
  if (!B.blockTerminated())
    B.createBr(CondBB);

  B.setInsertPoint(EndBB);
  popScope();
}

void IRGenImpl::genSwitch(const SwitchStmt *S) {
  RValue Cond = genExpr(S->Cond.get());
  if (hadError())
    return;
  Cond = convert(Cond, CType::scalar(BaseType::Long));

  BasicBlock *EndBB = CurFn->addBlock("switch.end");
  std::vector<BasicBlock *> CaseBlocks;
  BasicBlock *DefaultBB = EndBB;
  for (size_t I = 0; I != S->Cases.size(); ++I) {
    CaseBlocks.push_back(CurFn->addBlock(formatStr("switch.case%zu", I)));
    if (S->Cases[I].IsDefault)
      DefaultBB = CaseBlocks.back();
  }
  auto *SW = B.createSwitch(Cond.V, DefaultBB);
  for (size_t I = 0; I != S->Cases.size(); ++I)
    if (!S->Cases[I].IsDefault)
      SW->addCase(S->Cases[I].Value, CaseBlocks[I]);

  BreakTargets.push_back(EndBB);
  for (size_t I = 0; I != S->Cases.size(); ++I) {
    B.setInsertPoint(CaseBlocks[I]);
    pushScope();
    for (const StmtPtr &Child : S->Cases[I].Body)
      genStmt(Child.get());
    popScope();
    // Fall through to the next case, or exit.
    ensureTerminated(I + 1 < CaseBlocks.size() ? CaseBlocks[I + 1] : EndBB);
  }
  BreakTargets.pop_back();
  B.setInsertPoint(EndBB);
}

void IRGenImpl::genTry(const TryStmt *S) {
  BasicBlock *LandBB = CurFn->addBlock("try.lpad");
  BasicBlock *ContBB = CurFn->addBlock("try.cont");

  LandingPads.push_back(LandBB);
  genStmt(S->Body.get());
  LandingPads.pop_back();
  ensureTerminated(ContBB);

  // Landing pad: bind the payload to the catch variable and run the
  // handler.
  B.setInsertPoint(LandBB);
  auto *Pad = B.createLandingPad("ex");
  auto *CatchSlot = B.createAlloca(Ctx.getInt32Type(), S->CatchVar);
  B.createStore(B.createConvert(Pad, Ctx.getInt32Type()), CatchSlot);
  pushScope();
  Scopes.back()[S->CatchVar] = {CatchSlot, CType::scalar(BaseType::Int)};
  genStmt(S->Handler.get());
  popScope();
  ensureTerminated(ContBB);

  B.setInsertPoint(ContBB);
}

void IRGenImpl::genThrow(const ThrowStmt *S) {
  RValue V = genExpr(S->Value.get());
  if (hadError())
    return;
  V = convert(V, CType::scalar(BaseType::Long));
  Function *ThrowFn = getOrDeclareIntrinsic("__khaos_throw");
  emitCallMaybeInvoke(ThrowFn, {V.V}, /*CanThrow=*/true);
  if (!B.blockTerminated())
    B.createUnreachable();
}

BasicBlock *IRGenImpl::getLabelBlock(const std::string &Name) {
  BasicBlock *&BB = LabelBlocks[Name];
  if (!BB)
    BB = CurFn->addBlock("label." + Name);
  return BB;
}

void IRGenImpl::genGoto(const GotoStmt *S) {
  BasicBlock *Target = getLabelBlock(S->Label);
  if (!DefinedLabels.count(S->Label))
    PendingGotos.emplace(S->Label, S->Line); // Keeps the first goto's line.
  B.createBr(Target);
}

void IRGenImpl::genLabel(const LabelStmt *S) {
  if (!DefinedLabels.insert(S->Name).second) {
    fail(S->Line, "duplicate label '" + S->Name + "'");
    return;
  }
  PendingGotos.erase(S->Name);
  BasicBlock *BB = getLabelBlock(S->Name);
  ensureTerminated(BB);
  B.setInsertPoint(BB);
  genStmt(S->Body.get());
}

void IRGenImpl::genReturn(const ReturnStmt *S) {
  Type *RetTy = CurFn->getReturnType();
  if (RetTy->isVoid()) {
    if (S->Value)
      fail(S->Line, "void function returns a value");
    else
      B.createRetVoid();
    return;
  }
  if (!S->Value) {
    fail(S->Line, "non-void function must return a value");
    return;
  }
  RValue V = genExpr(S->Value.get());
  if (hadError())
    return;
  B.createRet(B.createConvert(V.V, RetTy));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

RValue IRGenImpl::genCondition(const Expr *E) {
  RValue V = genExpr(E);
  if (hadError())
    return V;
  return {B.createIsNonZero(V.V), CType::scalar(BaseType::Int)};
}

RValue IRGenImpl::loadLValue(const LValue &LV) {
  if (LV.Ty.isArray()) {
    // Arrays decay to a pointer to their first element.
    Value *First = B.createGEP(LV.Addr, M->getInt64(0));
    return {First, LV.Ty.decayed()};
  }
  return {B.createLoad(LV.Addr), LV.Ty};
}

Value *IRGenImpl::emitCallMaybeInvoke(Value *Callee,
                                      std::vector<Value *> Args,
                                      bool CanThrow) {
  if (!CanThrow || LandingPads.empty())
    return B.createCall(Callee, std::move(Args));
  // Split: the invoke terminates the current block; execution resumes in a
  // fresh block.
  BasicBlock *Normal = CurFn->addBlock("invoke.cont");
  Value *Result =
      B.createInvoke(Callee, std::move(Args), Normal, LandingPads.back());
  B.setInsertPoint(Normal);
  return Result;
}

RValue IRGenImpl::genExpr(const Expr *E) {
  if (hadError())
    return {M->getInt32(0), CType::scalar(BaseType::Int)};
  switch (E->Kind) {
  case ExprKind::IntLit: {
    const auto *L = static_cast<const IntLitExpr *>(E);
    if (L->IsChar)
      return {M->getInt8(L->Value), CType::scalar(BaseType::Char)};
    if (L->IsLong)
      return {M->getInt64(L->Value), CType::scalar(BaseType::Long)};
    return {M->getInt32(L->Value), CType::scalar(BaseType::Int)};
  }
  case ExprKind::FloatLit: {
    const auto *L = static_cast<const FloatLitExpr *>(E);
    if (L->IsFloat)
      return {M->getConstantFP(Ctx.getFloatType(), L->Value),
              CType::scalar(BaseType::Float)};
    return {M->getConstantFP(Ctx.getDoubleType(), L->Value),
            CType::scalar(BaseType::Double)};
  }
  case ExprKind::StringLit: {
    const auto *L = static_cast<const StringLitExpr *>(E);
    GlobalVariable *&GV = StringLiterals[L->Value];
    if (!GV) {
      auto *AT = Ctx.getArrayType(Ctx.getInt8Type(), L->Value.size() + 1);
      GV = M->createGlobal(M->uniqueName("str"), AT);
      std::vector<Constant *> Chars;
      for (char C : L->Value)
        Chars.push_back(M->getInt8(C));
      Chars.push_back(M->getInt8(0));
      GV->setInitializer(std::move(Chars));
    }
    Value *Ptr = B.createGEP(GV, M->getInt64(0));
    CType T = CType::scalar(BaseType::Char);
    return {Ptr, CType::pointerTo(T)};
  }
  case ExprKind::VarRef: {
    const auto *V = static_cast<const VarRefExpr *>(E);
    if (ScopedVar *SV = lookup(V->Name))
      return loadLValue({SV->Addr, SV->Ty});
    if (GlobalVariable *GV = M->getGlobal(V->Name)) {
      CType GTy;
      for (const GlobalDecl &G : P.Globals)
        if (G.Name == V->Name)
          GTy = G.Ty;
      return loadLValue({GV, GTy});
    }
    // A bare function name evaluates to its address.
    Function *F = M->getFunction(V->Name);
    if (!F)
      F = getOrDeclareIntrinsic(V->Name);
    if (F) {
      CType FT;
      auto It = FunctionDecls.find(V->Name);
      FT.Sig = std::make_shared<FuncSig>(
          It != FunctionDecls.end() ? It->second->Sig : FuncSig{});
      return {F, FT};
    }
    fail(E->Line, "unknown identifier '" + V->Name + "'");
    return {M->getInt32(0), CType::scalar(BaseType::Int)};
  }
  case ExprKind::Unary: {
    const auto *U = static_cast<const UnaryExpr *>(E);
    switch (U->Op) {
    case UnaryOp::Neg: {
      RValue V = genExpr(U->Sub.get());
      CType RTy = commonType(V.Ty, CType::scalar(BaseType::Int));
      V = convert(V, RTy);
      Value *Zero = M->getZeroValue(V.V->getType());
      bool IsFP = V.V->getType()->isFloatingPoint();
      return {B.createBinOp(IsFP ? BinOp::FSub : BinOp::Sub, Zero, V.V),
              RTy};
    }
    case UnaryOp::Not: {
      RValue V = genExpr(U->Sub.get());
      Value *IsZero = B.createIsNonZero(V.V);
      Value *Flipped = B.createBinOp(BinOp::Xor, IsZero, M->getInt1(true));
      return {B.createConvert(Flipped, Ctx.getInt32Type()),
              CType::scalar(BaseType::Int)};
    }
    case UnaryOp::BitNot: {
      RValue V = genExpr(U->Sub.get());
      CType RTy = commonType(V.Ty, CType::scalar(BaseType::Int));
      V = convert(V, RTy);
      Value *AllOnes = M->getConstantInt(V.V->getType(), -1);
      return {B.createBinOp(BinOp::Xor, V.V, AllOnes), RTy};
    }
    case UnaryOp::Deref: {
      RValue V = genExpr(U->Sub.get());
      if (!V.Ty.isPointerLike()) {
        fail(E->Line, "dereference of non-pointer");
        return V;
      }
      if (V.Ty.Sig && V.Ty.PtrDepth == 0)
        return V; // *funcptr == funcptr (C semantics).
      return loadLValue({V.V, V.Ty.pointee()});
    }
    case UnaryOp::AddrOf: {
      LValue LV = genLValue(U->Sub.get());
      if (hadError())
        return {M->getInt32(0), CType::scalar(BaseType::Int)};
      if (LV.Ty.isArray()) {
        Value *First = B.createGEP(LV.Addr, M->getInt64(0));
        return {First, LV.Ty.decayed()};
      }
      return {LV.Addr, CType::pointerTo(LV.Ty)};
    }
    }
    break;
  }
  case ExprKind::Binary: {
    const auto *BE = static_cast<const BinaryExpr *>(E);
    if (BE->Op == BinaryOp::LogicalAnd || BE->Op == BinaryOp::LogicalOr)
      return genLogical(BE);
    return genBinary(BE);
  }
  case ExprKind::Assign: {
    const auto *A = static_cast<const AssignExpr *>(E);
    LValue LHS = genLValue(A->LHS.get());
    if (hadError())
      return {M->getInt32(0), CType::scalar(BaseType::Int)};
    RValue RHS;
    if (A->CompoundOp >= 0) {
      RValue Old = loadLValue(LHS);
      RValue R = genExpr(A->RHS.get());
      // Pointer compound: p += n.
      if (Old.Ty.isPointerLike() &&
          ((BinaryOp)A->CompoundOp == BinaryOp::Add ||
           (BinaryOp)A->CompoundOp == BinaryOp::Sub)) {
        R = convert(R, CType::scalar(BaseType::Long));
        Value *Idx = R.V;
        if ((BinaryOp)A->CompoundOp == BinaryOp::Sub)
          Idx = B.createBinOp(BinOp::Sub, M->getInt64(0), Idx);
        RHS = {B.createGEP(Old.V, Idx), Old.Ty};
      } else {
        CType RTy = commonType(Old.Ty, R.Ty);
        RValue L2 = convert(Old, RTy);
        RValue R2 = convert(R, RTy);
        BinOp K;
        if (const char *Why =
                arithBinOp((BinaryOp)A->CompoundOp,
                           L2.V->getType()->isFloatingPoint(), K)) {
          fail(E->Line, Why);
          return {M->getInt32(0), CType::scalar(BaseType::Int)};
        }
        RHS = {B.createBinOp(K, L2.V, R2.V), RTy};
      }
    } else {
      RHS = genExpr(A->RHS.get());
    }
    if (hadError())
      return {M->getInt32(0), CType::scalar(BaseType::Int)};
    RHS = convert(RHS, LHS.Ty.decayed());
    B.createStore(RHS.V, LHS.Addr);
    return RHS;
  }
  case ExprKind::Call:
    return genCall(static_cast<const CallExpr *>(E));
  case ExprKind::Index: {
    const auto *I = static_cast<const IndexExpr *>(E);
    RValue Base = genExpr(I->Base.get());
    RValue Idx = genExpr(I->Idx.get());
    if (!Base.Ty.isPointerLike()) {
      fail(E->Line, "indexing a non-pointer");
      return Base;
    }
    Idx = convert(Idx, CType::scalar(BaseType::Long));
    Value *Elem = B.createGEP(Base.V, Idx.V);
    return loadLValue({Elem, Base.Ty.pointee()});
  }
  case ExprKind::Cast: {
    const auto *C = static_cast<const CastExpr *>(E);
    RValue V = genExpr(C->Sub.get());
    return convert(V, C->To);
  }
  case ExprKind::Conditional: {
    const auto *C = static_cast<const ConditionalExpr *>(E);
    RValue Cond = genCondition(C->Cond.get());
    BasicBlock *TrueBB = CurFn->addBlock("cond.true");
    BasicBlock *FalseBB = CurFn->addBlock("cond.false");
    BasicBlock *EndBB = CurFn->addBlock("cond.end");
    B.createCondBr(Cond.V, TrueBB, FalseBB);

    // Generate both arms into a shared temporary (phi-free IR).
    B.setInsertPoint(TrueBB);
    RValue TV = genExpr(C->TrueE.get());
    BasicBlock *TrueEnd = B.getInsertBlock();
    B.setInsertPoint(FalseBB);
    RValue FV = genExpr(C->FalseE.get());
    BasicBlock *FalseEnd = B.getInsertBlock();
    if (hadError())
      return TV;

    CType RTy = commonType(TV.Ty, FV.Ty);
    auto *Slot = new AllocaInst(irType(RTy), "cond.tmp");
    AllocaBlock->insertAt(0, Slot);

    B.setInsertPoint(TrueEnd);
    TV = convert(TV, RTy);
    B.createStore(TV.V, Slot);
    B.createBr(EndBB);
    B.setInsertPoint(FalseEnd);
    FV = convert(FV, RTy);
    B.createStore(FV.V, Slot);
    B.createBr(EndBB);

    B.setInsertPoint(EndBB);
    return {B.createLoad(Slot), RTy};
  }
  case ExprKind::IncDec: {
    const auto *I = static_cast<const IncDecExpr *>(E);
    LValue LV = genLValue(I->Sub.get());
    if (hadError())
      return {M->getInt32(0), CType::scalar(BaseType::Int)};
    RValue Old = loadLValue(LV);
    Value *New;
    if (Old.Ty.isPointerLike()) {
      New = B.createGEP(Old.V, M->getInt64(I->IsInc ? 1 : -1));
    } else {
      Value *One = Old.V->getType()->isFloatingPoint()
                       ? (Value *)M->getConstantFP(Old.V->getType(), 1.0)
                       : (Value *)M->getConstantInt(Old.V->getType(), 1);
      bool IsFP = Old.V->getType()->isFloatingPoint();
      New = B.createBinOp(I->IsInc ? (IsFP ? BinOp::FAdd : BinOp::Add)
                                   : (IsFP ? BinOp::FSub : BinOp::Sub),
                          Old.V, One);
    }
    B.createStore(New, LV.Addr);
    return {I->IsPrefix ? New : Old.V, Old.Ty};
  }
  }
  fail(E->Line, "unsupported expression");
  return {M->getInt32(0), CType::scalar(BaseType::Int)};
}

RValue IRGenImpl::genBinary(const BinaryExpr *E) {
  RValue L = genExpr(E->LHS.get());
  RValue R = genExpr(E->RHS.get());
  if (hadError())
    return L;

  bool IsCmp = E->Op == BinaryOp::Lt || E->Op == BinaryOp::Le ||
               E->Op == BinaryOp::Gt || E->Op == BinaryOp::Ge ||
               E->Op == BinaryOp::Eq || E->Op == BinaryOp::Ne;

  // Pointer arithmetic.
  CType LD = L.Ty.decayed(), RD = R.Ty.decayed();
  if (!IsCmp && LD.isPointerLike() && !RD.isPointerLike()) {
    R = convert(R, CType::scalar(BaseType::Long));
    Value *Idx = R.V;
    if (E->Op == BinaryOp::Sub)
      Idx = B.createBinOp(BinOp::Sub, M->getInt64(0), Idx);
    else if (E->Op != BinaryOp::Add) {
      fail(E->Line, "invalid pointer arithmetic");
      return L;
    }
    return {B.createGEP(L.V, Idx), LD};
  }
  if (!IsCmp && LD.isPointerLike() && RD.isPointerLike() &&
      E->Op == BinaryOp::Sub) {
    // Pointer difference in elements.
    Value *LI = B.createCast(CastKind::PtrToInt, L.V, Ctx.getInt64Type());
    Value *RI = B.createCast(CastKind::PtrToInt, R.V, Ctx.getInt64Type());
    Value *Diff = B.createBinOp(BinOp::Sub, LI, RI);
    uint64_t Size =
        cast<PointerType>(L.V->getType())->getPointee()->getStoreSize();
    Value *Count = B.createBinOp(BinOp::SDiv, Diff, M->getInt64(Size));
    return {Count, CType::scalar(BaseType::Long)};
  }

  // Comparisons involving pointers compare addresses.
  if (IsCmp && (LD.isPointerLike() || RD.isPointerLike())) {
    if (!LD.isPointerLike())
      L = convert(L, RD);
    if (!RD.isPointerLike())
      R = convert(R, LD);
    if (L.V->getType() != R.V->getType())
      R = {B.createCast(CastKind::Bitcast, R.V, L.V->getType()), LD};
    Value *Flag = B.createCmp(cmpPredOf(E->Op), L.V, R.V);
    return {B.createConvert(Flag, Ctx.getInt32Type()),
            CType::scalar(BaseType::Int)};
  }

  CType RTy = commonType(L.Ty, R.Ty);
  L = convert(L, RTy);
  R = convert(R, RTy);
  bool IsFP = L.V->getType()->isFloatingPoint();

  if (IsCmp) {
    Value *Flag = B.createCmp(cmpPredOf(E->Op), L.V, R.V);
    return {B.createConvert(Flag, Ctx.getInt32Type()),
            CType::scalar(BaseType::Int)};
  }

  BinOp K;
  if (const char *Why = arithBinOp(E->Op, IsFP, K)) {
    fail(E->Line, Why);
    return L;
  }
  return {B.createBinOp(K, L.V, R.V), RTy};
}

RValue IRGenImpl::genLogical(const BinaryExpr *E) {
  bool IsAnd = E->Op == BinaryOp::LogicalAnd;
  auto *Slot = new AllocaInst(Ctx.getInt32Type(), "logic.tmp");
  AllocaBlock->insertAt(0, Slot);

  BasicBlock *RHSBB = CurFn->addBlock(IsAnd ? "land.rhs" : "lor.rhs");
  BasicBlock *ShortBB = CurFn->addBlock(IsAnd ? "land.short" : "lor.short");
  BasicBlock *EndBB = CurFn->addBlock(IsAnd ? "land.end" : "lor.end");

  RValue L = genCondition(E->LHS.get());
  if (hadError())
    return L;
  if (IsAnd)
    B.createCondBr(L.V, RHSBB, ShortBB);
  else
    B.createCondBr(L.V, ShortBB, RHSBB);

  B.setInsertPoint(ShortBB);
  B.createStore(M->getInt32(IsAnd ? 0 : 1), Slot);
  B.createBr(EndBB);

  B.setInsertPoint(RHSBB);
  RValue R = genCondition(E->RHS.get());
  if (hadError())
    return R;
  B.createStore(B.createConvert(R.V, Ctx.getInt32Type()), Slot);
  B.createBr(EndBB);

  B.setInsertPoint(EndBB);
  return {B.createLoad(Slot), CType::scalar(BaseType::Int)};
}

RValue IRGenImpl::genCall(const CallExpr *E) {
  // Resolve the callee: direct function name or function-pointer value.
  Value *Callee = nullptr;
  const FuncSig *Sig = nullptr;
  bool IsIntrinsic = false;

  if (E->Callee->Kind == ExprKind::VarRef) {
    const auto *V = static_cast<const VarRefExpr *>(E->Callee.get());
    if (!lookup(V->Name) && !M->getGlobal(V->Name)) {
      Function *F = M->getFunction(V->Name);
      if (!F)
        F = getOrDeclareIntrinsic(V->Name);
      if (F) {
        Callee = F;
        auto It = FunctionDecls.find(V->Name);
        if (It != FunctionDecls.end())
          Sig = &It->second->Sig;
        IsIntrinsic = F->isIntrinsic();
      }
    }
  }

  CType CalleeCTy;
  if (!Callee) {
    RValue CV = genExpr(E->Callee.get());
    if (hadError())
      return CV;
    if (!CV.Ty.Sig) {
      fail(E->Line, "called object is not a function");
      return {M->getInt32(0), CType::scalar(BaseType::Int)};
    }
    Callee = CV.V;
    CalleeCTy = CV.Ty;
    Sig = CV.Ty.Sig.get();
  }

  // Static callee type for arg conversion.
  auto *FT = cast<FunctionType>(
      cast<PointerType>(Callee->getType())->getPointee());

  std::vector<Value *> Args;
  for (size_t I = 0; I != E->Args.size(); ++I) {
    RValue A = genExpr(E->Args[I].get());
    if (hadError())
      return A;
    if (I < FT->getNumParams()) {
      Args.push_back(B.createConvert(A.V, FT->getParamType(I)));
    } else {
      // Default varargs promotions: float -> double, small ints -> i32.
      Type *Ty = A.V->getType();
      if (Ty->getKind() == TypeKind::Float)
        Args.push_back(B.createConvert(A.V, Ctx.getDoubleType()));
      else if (Ty->isInteger() && Ty->getIntegerBitWidth() < 32)
        Args.push_back(B.createConvert(A.V, Ctx.getInt32Type()));
      else
        Args.push_back(A.V);
    }
  }
  if (Args.size() < FT->getNumParams()) {
    fail(E->Line, "too few call arguments");
    return {M->getInt32(0), CType::scalar(BaseType::Int)};
  }

  // setjmp/longjmp and pure intrinsics cannot raise MiniC exceptions.
  Value *Result =
      emitCallMaybeInvoke(Callee, std::move(Args), !IsIntrinsic);

  CType RetTy = Sig ? Sig->Ret : CType::scalar(BaseType::Int);
  if (FT->getReturnType()->isVoid())
    RetTy = CType::scalar(BaseType::Void);
  return {Result, RetTy};
}

LValue IRGenImpl::genLValue(const Expr *E) {
  switch (E->Kind) {
  case ExprKind::VarRef: {
    const auto *V = static_cast<const VarRefExpr *>(E);
    if (ScopedVar *SV = lookup(V->Name))
      return {SV->Addr, SV->Ty};
    if (GlobalVariable *GV = M->getGlobal(V->Name)) {
      for (const GlobalDecl &G : P.Globals)
        if (G.Name == V->Name)
          return {GV, G.Ty};
      // String literal global (shouldn't be named directly).
      return {GV, CType::scalar(BaseType::Int)};
    }
    fail(E->Line, "unknown variable '" + V->Name + "'");
    return {};
  }
  case ExprKind::Unary: {
    const auto *U = static_cast<const UnaryExpr *>(E);
    if (U->Op == UnaryOp::Deref) {
      RValue V = genExpr(U->Sub.get());
      if (!V.Ty.isPointerLike()) {
        fail(E->Line, "dereference of non-pointer");
        return {};
      }
      return {V.V, V.Ty.pointee()};
    }
    break;
  }
  case ExprKind::Index: {
    const auto *I = static_cast<const IndexExpr *>(E);
    RValue Base = genExpr(I->Base.get());
    RValue Idx = genExpr(I->Idx.get());
    if (hadError())
      return {};
    if (!Base.Ty.isPointerLike()) {
      fail(E->Line, "indexing a non-pointer");
      return {};
    }
    Idx = convert(Idx, CType::scalar(BaseType::Long));
    return {B.createGEP(Base.V, Idx.V), Base.Ty.pointee()};
  }
  default:
    break;
  }
  fail(E->Line, "expression is not assignable");
  return {};
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::unique_ptr<Module> IRGenImpl::run() {
  declareFunctions();
  if (hadError())
    return nullptr;
  declareGlobals();
  if (hadError())
    return nullptr;
  for (const FunctionDecl &FD : P.Functions) {
    if (!FD.Body)
      continue;
    genFunctionBody(FD);
    if (hadError())
      return nullptr;
  }
  std::vector<std::string> Problems = verifyModule(*M);
  if (!Problems.empty()) {
    Error = "IR verification failed: " + Problems.front();
    return nullptr;
  }
  return std::move(M);
}

std::unique_ptr<Module> minic::generateIR(const Program &P, Context &Ctx,
                                          const std::string &ModuleName,
                                          std::string &Error) {
  return IRGenImpl(P, Ctx, ModuleName, Error).run();
}

std::unique_ptr<Module> khaos::compileMiniC(const std::string &Source,
                                            Context &Ctx,
                                            const std::string &ModuleName,
                                            std::string &Error) {
  std::unique_ptr<Program> Prog = minic::parseProgram(Source, Error);
  if (!Prog)
    return nullptr;
  return minic::generateIR(*Prog, Ctx, ModuleName, Error);
}
