//===- diffing/BinaryFeatures.cpp - Shared feature extraction -------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "diffing/BinaryFeatures.h"

#include <cmath>

using namespace khaos;

unsigned khaos::semanticCategory(const MInst &I) {
  switch (I.Op) {
  case MOp::Mov:
  case MOp::MovImm:
  case MOp::Movsx:
  case MOp::Movzx:
  case MOp::Lea:
  case MOp::SetCC:
  case MOp::Cmov:
    return 0; // transfer
  case MOp::Add:
  case MOp::Sub:
  case MOp::IMul:
  case MOp::IDiv:
  case MOp::Cdq:
  case MOp::Neg:
    return 1; // arithmetic
  case MOp::And:
  case MOp::Or:
  case MOp::Xor:
  case MOp::Not:
  case MOp::Shl:
  case MOp::Sar:
  case MOp::Shr:
    return 2; // logic
  case MOp::LoadM:
  case MOp::StoreM:
  case MOp::Push:
  case MOp::Pop:
    return 3; // memory / stack
  case MOp::Cmp:
  case MOp::Test:
  case MOp::Ucomis:
    return 4; // compare
  case MOp::Call:
  case MOp::CallIndirect:
    return 5; // call
  case MOp::Jmp:
  case MOp::Jcc:
  case MOp::Ret:
  case MOp::Leave:
  case MOp::Ud2:
    return 6; // branch / control
  default:
    return 7; // fp & rest
  }
}

ImageFeatures khaos::extractFeatures(const BinaryImage &Image) {
  ImageFeatures Out;
  Out.Funcs.resize(Image.Functions.size());

  for (size_t FI = 0; FI != Image.Functions.size(); ++FI) {
    const MFunction &MF = Image.Functions[FI];
    FunctionFeatures &FF = Out.Funcs[FI];
    FF.Name = MF.Name;
    FF.NumBlocks = MF.Blocks.size();
    FF.OpcodeHist.assign(NumMOpcodes, 0.0);
    FF.SemanticVec.assign(NumSemanticCategories, 0.0);

    for (const MBlock &B : MF.Blocks) {
      FF.NumEdges += B.Succs.size();
      std::vector<double> BlockHist(NumMOpcodes, 0.0);
      std::vector<uint32_t> Succs(B.Succs.begin(), B.Succs.end());
      for (const MInst &I : B.Insts) {
        ++FF.NumInsts;
        FF.OpcodeHist[(unsigned)I.Op] += 1.0;
        BlockHist[(unsigned)I.Op] += 1.0;
        FF.SemanticVec[semanticCategory(I)] += 1.0;
        FF.TokenSeq.push_back((unsigned)I.Op);
        // Constants with information content: skip tiny idiom values,
        // power-of-two strides and all-ones masks — they appear in every
        // function and carry no identity.
        if (I.HasImmediate && (I.Imm > 16 || I.Imm < -16)) {
          uint64_t U = static_cast<uint64_t>(I.Imm);
          bool Mask = I.Imm > 0 && ((U + 1) & U) == 0;
          bool Pow2 = I.Imm > 0 && (U & (U - 1)) == 0;
          if (!Mask && !Pow2)
            FF.Immediates.push_back(I.Imm);
        }
        if (I.Op == MOp::Call) {
          ++FF.NumCalls;
          if (I.SymId >= 0) {
            auto It = Image.FunctionIndex.find(Image.Symbols[I.SymId]);
            if (It != Image.FunctionIndex.end())
              FF.Callees.push_back(It->second);
          }
        } else if (I.Op == MOp::CallIndirect) {
          ++FF.NumCalls;
          ++FF.NumIndirectCalls;
        }
      }
      FF.BlockHists.push_back(std::move(BlockHist));
      FF.BlockSuccs.push_back(std::move(Succs));
    }
  }

  // Call graph degrees.
  for (size_t FI = 0; FI != Out.Funcs.size(); ++FI) {
    Out.Funcs[FI].CallGraphOut = Out.Funcs[FI].Callees.size();
    for (uint32_t Callee : Out.Funcs[FI].Callees)
      if (Callee < Out.Funcs.size())
        ++Out.Funcs[Callee].CallGraphIn;
  }
  return Out;
}

unsigned khaos::robustTokenClass(unsigned Opcode) {
  unsigned Cat = semanticCategory(MInst(static_cast<MOp>(Opcode)));
  return Cat == 2 ? 1 : Cat; // Merge logic into arithmetic.
}

std::vector<double>
khaos::semanticHistogram(const std::vector<double> &OpcodeHist) {
  std::vector<double> Sem(NumSemanticCategories, 0.0);
  for (unsigned Op = 0; Op != OpcodeHist.size() && Op != NumMOpcodes; ++Op)
    if (OpcodeHist[Op] > 0)
      Sem[semanticCategory(MInst(static_cast<MOp>(Op)))] += OpcodeHist[Op];
  return Sem;
}

double khaos::shapeAffinity(const FunctionFeatures &A,
                            const FunctionFeatures &B) {
  auto D = [](double X, double Y) {
    return std::fabs(std::log1p(X) - std::log1p(Y));
  };
  double L1 = D(A.NumBlocks, B.NumBlocks) + D(A.NumEdges, B.NumEdges) +
              D(A.NumCalls, B.NumCalls) + D(A.NumInsts, B.NumInsts);
  return std::exp(-L1);
}
