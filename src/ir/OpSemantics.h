//===- ir/OpSemantics.h - What each KIR value operation computes -*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of the value each KIR value operation computes:
/// integer and FP binops with their division traps, compares, casts, width
/// narrowing and GEP address arithmetic. Both VM engines and ConstantFold
/// call these, so a folded value and an executed one agree by
/// construction; the engines keep only their walk, operand fetch, cost
/// charging and trap attribution.
///
/// Values live in 64-bit slots. An integer of type iN is held
/// sign-extended (i1 as 0 or 1); pointers are plain addresses. Integer
/// arithmetic is two's complement and wraps: add, sub, mul, shl and GEP
/// offsets are computed in uint64_t, shift amounts are masked to 0..63,
/// and a result is narrowed to its type's width afterwards. FPToSI of NaN
/// or of a value outside int64's range yields INT64_MIN (what x86-64's
/// cvttsd2si returns) before narrowing. Every function is defined on every
/// input; only sdiv/srem trap, and callers ask divTrap() first.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_IR_OPSEMANTICS_H
#define KHAOS_IR_OPSEMANTICS_H

#include "ir/Instruction.h"
#include "ir/Type.h"

#include <cstdint>

namespace khaos {

/// One 64-bit value; the IR type says which member is live.
union OpValue {
  int64_t I;
  double F;
};

/// \p V narrowed to integer kind \p K: i1 keeps bit 0, i8 and i32
/// sign-extend from their width, every other kind passes through.
inline int64_t narrowInt(int64_t V, TypeKind K) {
  switch (K) {
  case TypeKind::Int1:
    return V & 1;
  case TypeKind::Int8:
    return static_cast<int8_t>(V);
  case TypeKind::Int32:
    return static_cast<int32_t>(V);
  default:
    return V;
  }
}

/// \p V rounded to float precision when \p K is Float.
inline double roundFP(double V, TypeKind K) {
  return K == TypeKind::Float ? static_cast<float>(V) : V;
}

/// The trap binop \p Op raises on \p L and \p R, or nullptr. Only sdiv and
/// srem trap: by zero, and INT64_MIN by -1.
inline const char *divTrap(BinOp Op, int64_t L, int64_t R) {
  if (Op != BinOp::SDiv && Op != BinOp::SRem)
    return nullptr;
  if (R == 0)
    return "integer division by zero";
  if (L == INT64_MIN && R == -1)
    return "integer division overflow";
  return nullptr;
}

/// Integer binop \p Op on 64-bit operands, before narrowing. A trapping
/// sdiv/srem yields 0; FP ops yield 0.
inline int64_t intBinOp(BinOp Op, int64_t L, int64_t R) {
  const uint64_t UL = static_cast<uint64_t>(L);
  const uint64_t UR = static_cast<uint64_t>(R);
  switch (Op) {
  case BinOp::Add:
    return static_cast<int64_t>(UL + UR);
  case BinOp::Sub:
    return static_cast<int64_t>(UL - UR);
  case BinOp::Mul:
    return static_cast<int64_t>(UL * UR);
  case BinOp::SDiv:
    return divTrap(Op, L, R) ? 0 : L / R;
  case BinOp::SRem:
    return divTrap(Op, L, R) ? 0 : L % R;
  case BinOp::And:
    return L & R;
  case BinOp::Or:
    return L | R;
  case BinOp::Xor:
    return L ^ R;
  case BinOp::Shl:
    return static_cast<int64_t>(UL << (R & 63));
  case BinOp::AShr:
    return L >> (R & 63);
  case BinOp::LShr:
    return static_cast<int64_t>(UL >> (R & 63));
  default:
    return 0;
  }
}

/// FP binop \p Op in double precision, before rounding. Integer ops yield 0.
inline double fpBinOp(BinOp Op, double L, double R) {
  switch (Op) {
  case BinOp::FAdd:
    return L + R;
  case BinOp::FSub:
    return L - R;
  case BinOp::FMul:
    return L * R;
  case BinOp::FDiv:
    return L / R;
  default:
    return 0;
  }
}

/// The value of binop \p Op whose result has kind \p K: integer ops
/// narrowed to it, FP ops rounded to it. Precondition: no divTrap.
inline OpValue binOp(BinOp Op, OpValue L, OpValue R, TypeKind K) {
  OpValue Out;
  if (Op >= BinOp::FAdd)
    Out.F = roundFP(fpBinOp(Op, L.F, R.F), K);
  else
    Out.I = narrowInt(intBinOp(Op, L.I, R.I), K);
  return Out;
}

/// Compare \p P; T is int64_t (integers and pointers, signed) or double
/// (ordered: every predicate but NE is false on NaN).
template <typename T> inline bool cmpOp(CmpPred P, T L, T R) {
  switch (P) {
  case CmpPred::EQ:
    return L == R;
  case CmpPred::NE:
    return L != R;
  case CmpPred::SLT:
    return L < R;
  case CmpPred::SLE:
    return L <= R;
  case CmpPred::SGT:
    return L > R;
  case CmpPred::SGE:
    return L >= R;
  }
  return false;
}

/// FPToSI before narrowing: truncation toward zero, with NaN and values
/// outside int64's range giving INT64_MIN.
inline int64_t fpToInt64(double D) {
  constexpr double TwoTo63 = 9223372036854775808.0;
  if (!(D >= -TwoTo63 && D < TwoTo63))
    return INT64_MIN;
  return static_cast<int64_t>(D);
}

/// The value of cast \p CK of \p V from kind \p Src to kind \p Dst.
inline OpValue castOp(CastKind CK, OpValue V, TypeKind Src, TypeKind Dst) {
  OpValue Out{};
  switch (CK) {
  case CastKind::Trunc:
    Out.I = narrowInt(V.I, Dst);
    break;
  case CastKind::ZExt: {
    // The slot holds the source sign-extended; keep only its own bits.
    uint64_t U = static_cast<uint64_t>(V.I);
    if (Src == TypeKind::Int1)
      U &= 1;
    else if (Src == TypeKind::Int8)
      U &= 0xFF;
    else if (Src == TypeKind::Int32)
      U &= 0xFFFFFFFF;
    Out.I = static_cast<int64_t>(U);
    break;
  }
  case CastKind::FPToSI:
    Out.I = narrowInt(fpToInt64(V.F), Dst);
    break;
  case CastKind::SIToFP:
    Out.F = roundFP(static_cast<double>(V.I), Dst);
    break;
  case CastKind::FPTrunc:
    Out.F = static_cast<float>(V.F);
    break;
  case CastKind::SExt: // The slot already holds the sign-extended value.
  case CastKind::FPExt:
  case CastKind::Bitcast:
  case CastKind::PtrToInt:
  case CastKind::IntToPtr:
    Out = V;
    break;
  }
  return Out;
}

/// GEP address \p Base + \p Index * \p Size, wrapping.
inline int64_t gepAddress(int64_t Base, int64_t Index, uint64_t Size) {
  return static_cast<int64_t>(static_cast<uint64_t>(Base) +
                              static_cast<uint64_t>(Index) * Size);
}

} // namespace khaos

#endif // KHAOS_IR_OPSEMANTICS_H
