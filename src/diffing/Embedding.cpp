//===- diffing/Embedding.cpp - Deterministic token embeddings --------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "diffing/Embedding.h"

#include "support/RNG.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

using namespace khaos;

namespace {

/// The vector of \p Token, from this thread's memo. Vectors are pure
/// functions of the token, so per-thread memos need no lock and can never
/// disagree; the references stay valid for the thread's lifetime
/// (unordered_map never moves its elements).
const std::vector<double> &memoizedTokenVector(uint64_t Token) {
  thread_local std::unordered_map<uint64_t, std::vector<double>> Memo;
  auto [It, Inserted] = Memo.try_emplace(Token);
  std::vector<double> &V = It->second;
  if (!Inserted)
    return V;
  RNG Rng(Token * 0x9e3779b97f4a7c15ull + 0x1234);
  V.resize(EmbeddingDim);
  double Norm = 0.0;
  for (double &X : V) {
    X = Rng.nextDouble() * 2.0 - 1.0;
    Norm += X * X;
  }
  Norm = std::sqrt(Norm);
  if (Norm > 0)
    for (double &X : V)
      X /= Norm;
  return V;
}

} // namespace

std::vector<double> khaos::tokenVector(uint64_t Token) {
  return memoizedTokenVector(Token);
}

void khaos::accumulateToken(std::vector<double> &Acc, uint64_t Token,
                            double Scale) {
  const std::vector<double> &V = memoizedTokenVector(Token);
  if (Acc.size() != V.size())
    Acc.assign(V.size(), 0.0);
  for (unsigned I = 0; I != EmbeddingDim; ++I)
    Acc[I] += Scale * V[I];
}

uint64_t khaos::bigramToken(uint64_t A, uint64_t B) {
  return (A + 1) * 0x100000001b3ull ^ (B + 1) * 0x9e3779b97f4a7c15ull;
}

void khaos::appendSegment(std::vector<double> &Out,
                          std::vector<double> Segment, double Weight) {
  double Norm = 0.0;
  for (double X : Segment)
    Norm += X * X;
  Norm = std::sqrt(Norm);
  for (double X : Segment)
    Out.push_back(Norm > 0 ? Weight * X / Norm : 0.0);
}

double khaos::sizeAffinity(double SizeA, double SizeB) {
  if (SizeA <= 0 || SizeB <= 0)
    return 0.0;
  return 2.0 * std::min(SizeA, SizeB) / (SizeA + SizeB);
}

unsigned khaos::positionBucket(size_t Index, size_t Total) {
  if (Total <= 1)
    return 0;
  size_t Bucket = Index * NumPositionBuckets / Total;
  return static_cast<unsigned>(
      std::min<size_t>(Bucket, NumPositionBuckets - 1));
}

double khaos::dotProduct(const std::vector<double> &A,
                         const std::vector<double> &B) {
  double Dot = 0.0;
  size_t N = std::min(A.size(), B.size());
  for (size_t I = 0; I != N; ++I)
    Dot += A[I] * B[I];
  return Dot;
}

std::vector<double> khaos::softmaxWeights(const std::vector<double> &Scores,
                                          double Temperature) {
  std::vector<double> W(Scores.size(), 0.0);
  if (Scores.empty())
    return W;
  double Max = Scores.front();
  for (double S : Scores)
    Max = std::max(Max, S);
  double Sum = 0.0;
  for (size_t I = 0; I != Scores.size(); ++I) {
    W[I] = std::exp((Scores[I] - Max) / Temperature);
    Sum += W[I];
  }
  for (double &X : W)
    X /= Sum;
  return W;
}
