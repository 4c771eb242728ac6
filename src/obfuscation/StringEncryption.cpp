//===- obfuscation/StringEncryption.cpp - String/const encryption ---------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String/constant encryption after Chakravyuha and the llvm-msvc-xd
/// plugin: every i8-array global with a constant initializer is XOR
/// encrypted in the image with a per-global key, and a generated decode
/// stub — guarded by a once flag so re-entering main cannot double-XOR —
/// restores the plaintext at the top of main before any user code can
/// read it. Static string features disappear from the binary; runtime
/// behaviour is unchanged because nothing executes before main.
///
/// The post-opt pipeline is safe here by construction: no pass folds
/// global initializers into loads (globals are mutable), and the stub is
/// NoInline + NoObfuscate so later passes keep it intact.
///
//===----------------------------------------------------------------------===//

#include "obfuscation/OLLVM.h"

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/RNG.h"

using namespace khaos;

unsigned khaos::runStringEncryption(Module &M, const OLLVMOptions &Opts,
                                    PassReport *Report) {
  Function *Main = M.getFunction("main");
  if (!Main || Main->isDeclaration())
    return 0; // Nothing would ever run the decoder.

  RNG Rng(Opts.Seed);
  Context &Ctx = M.getContext();
  uint64_t Before = M.instructionCount();

  // Eligible: i8-array globals whose initializer is all ConstantInt bytes.
  std::vector<GlobalVariable *> Targets;
  std::vector<uint8_t> Keys;
  for (const auto &G : M.globals()) {
    auto *AT = dyn_cast<ArrayType>(G->getValueType());
    if (!AT || AT->getElementType()->getKind() != TypeKind::Int8)
      continue;
    const std::vector<Constant *> &Init = G->getInitializer();
    if (Init.empty())
      continue;
    bool AllBytes = true;
    for (const Constant *C : Init)
      if (!isa<ConstantInt>(C)) {
        AllBytes = false;
        break;
      }
    if (!AllBytes)
      continue;
    if (!Rng.nextBool(Opts.Ratio))
      continue;
    Targets.push_back(G.get());
    Keys.push_back(static_cast<uint8_t>(1 + Rng.nextBelow(255)));
  }
  if (Targets.empty())
    return 0;

  // Encrypt the initializers in place.
  for (size_t I = 0; I != Targets.size(); ++I) {
    std::vector<Constant *> Enc;
    for (const Constant *C : Targets[I]->getInitializer()) {
      uint8_t B = static_cast<uint8_t>(cast<ConstantInt>(C)->getValue());
      Enc.push_back(M.getInt8(static_cast<int8_t>(B ^ Keys[I])));
    }
    Targets[I]->setInitializer(std::move(Enc));
  }

  // Once flag + decode stub: one byte-XOR loop per encrypted global.
  GlobalVariable *Done =
      M.createGlobal(M.uniqueName("strenc.done"), Ctx.getInt32Type());
  FunctionType *FT = Ctx.getFunctionType(Ctx.getVoidType(), {}, false);
  Function *Dec = M.createFunction(M.uniqueName("strenc.decode"), FT);
  Dec->setNoInline(true);
  Dec->setNoObfuscate(true);

  BasicBlock *Entry = Dec->addBlock("entry");
  BasicBlock *Start = Dec->addBlock("strenc.start");
  BasicBlock *Exit = Dec->addBlock("strenc.exit");

  IRBuilder B(M);
  B.setInsertPoint(Entry);
  AllocaInst *Idx = B.createAlloca(Ctx.getInt64Type(), "strenc.idx");
  Value *DoneV = B.createLoad(Done, "strenc.done.v");
  B.createCondBr(B.createIsNonZero(DoneV), Exit, Start);

  B.setInsertPoint(Start);
  B.createStore(M.getInt32(1), Done);
  B.createStore(M.getInt64(0), Idx);

  for (size_t I = 0; I != Targets.size(); ++I) {
    GlobalVariable *G = Targets[I];
    int64_t Len = static_cast<int64_t>(G->getInitializer().size());
    BasicBlock *Head = Dec->addBlock("strenc.head");
    BasicBlock *Body = Dec->addBlock("strenc.body");
    BasicBlock *Next = I + 1 == Targets.size()
                           ? Exit
                           : Dec->addBlock("strenc.next");
    B.createBr(Head);

    B.setInsertPoint(Head);
    Value *IV = B.createLoad(Idx, "strenc.i");
    Value *InRange = B.createCmp(CmpPred::SLT, IV, M.getInt64(Len));
    B.createCondBr(InRange, Body, Next);

    B.setInsertPoint(Body);
    Value *P = B.createGEP(G, IV, "strenc.p");
    Value *Byte = B.createLoad(P, "strenc.b");
    Value *Plain =
        B.createBinOp(BinOp::Xor, Byte, M.getInt8(Keys[I]), "strenc.x");
    B.createStore(Plain, P);
    B.createStore(B.createAdd(IV, M.getInt64(1)), Idx);
    B.createBr(Head);

    // Reset the index for the next global's loop.
    B.setInsertPoint(Next);
    if (Next != Exit)
      B.createStore(M.getInt64(0), Idx);
  }

  B.setInsertPoint(Exit);
  B.createRetVoid();

  // Decode before anything in main runs.
  IRBuilder CallB(M);
  CallB.setInsertBefore(Main->getEntryBlock()->front());
  CallB.createCall(Dec, {});

  if (Report) {
    Report->StringsEncrypted += static_cast<unsigned>(Targets.size());
    Report->BlocksInserted += static_cast<unsigned>(Dec->size());
    Report->BytesGrown += (M.instructionCount() - Before) * 4;
  }
  return static_cast<unsigned>(Targets.size());
}
