//===- support/Statistics.h - Small numeric helpers -------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Geometric mean, vector distances and similarity measures shared by the
/// diffing tools and the evaluation harness.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_SUPPORT_STATISTICS_H
#define KHAOS_SUPPORT_STATISTICS_H

#include <vector>

namespace khaos {

/// Geometric mean of (1 + X/100) ratios expressed back in percent, the way
/// SPEC overhead tables are aggregated. Values may be negative (speedups).
double geomeanOverheadPercent(const std::vector<double> &Percents);

/// Plain geometric mean of positive values.
double geomean(const std::vector<double> &Values);

/// Arithmetic mean; 0 for empty input.
double mean(const std::vector<double> &Values);

/// Cosine similarity in [−1, 1]; 0 when either vector is all-zero.
double cosineSimilarity(const std::vector<double> &A,
                        const std::vector<double> &B);

/// Euclidean (L2) distance between equally-sized vectors.
double euclideanDistance(const std::vector<double> &A,
                         const std::vector<double> &B);

} // namespace khaos

#endif // KHAOS_SUPPORT_STATISTICS_H
