//===- support/Statistics.cpp - Small numeric helpers ---------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include <cassert>
#include <cmath>

using namespace khaos;

double khaos::geomeanOverheadPercent(const std::vector<double> &Percents) {
  if (Percents.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double P : Percents) {
    double Ratio = 1.0 + P / 100.0;
    // Clamp pathological speedups so a single outlier cannot drive the
    // geomean complex.
    if (Ratio < 0.01)
      Ratio = 0.01;
    LogSum += std::log(Ratio);
  }
  return (std::exp(LogSum / Percents.size()) - 1.0) * 100.0;
}

double khaos::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values) {
    assert(V > 0.0 && "geomean of non-positive value");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / Values.size());
}

double khaos::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / Values.size();
}

double khaos::cosineSimilarity(const std::vector<double> &A,
                               const std::vector<double> &B) {
  assert(A.size() == B.size() && "dimension mismatch");
  double Dot = 0.0, NA = 0.0, NB = 0.0;
  for (size_t I = 0, E = A.size(); I != E; ++I) {
    Dot += A[I] * B[I];
    NA += A[I] * A[I];
    NB += B[I] * B[I];
  }
  if (NA == 0.0 || NB == 0.0)
    return 0.0;
  return Dot / (std::sqrt(NA) * std::sqrt(NB));
}

double khaos::euclideanDistance(const std::vector<double> &A,
                                const std::vector<double> &B) {
  assert(A.size() == B.size() && "dimension mismatch");
  double Sum = 0.0;
  for (size_t I = 0, E = A.size(); I != E; ++I) {
    double D = A[I] - B[I];
    Sum += D * D;
  }
  return std::sqrt(Sum);
}
