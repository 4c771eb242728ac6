//===- harness/TableRenderer.h - Fixed-width table output -------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal fixed-width table printer used by the bench binaries to emit
/// the paper's tables and figure data series.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_HARNESS_TABLERENDERER_H
#define KHAOS_HARNESS_TABLERENDERER_H

#include <string>
#include <vector>

namespace khaos {

/// Collects rows and prints them with aligned columns.
class TableRenderer {
public:
  explicit TableRenderer(std::vector<std::string> Headers);

  /// Appends a row. Aborts with a diagnostic when the row does not have
  /// exactly one cell per header.
  void addRow(std::vector<std::string> Cells);
  /// Renders to a string (also convenient for tests).
  std::string render() const;
  /// Prints to stdout.
  void print() const;

  static std::string fmtPercent(double V);
  static std::string fmtRatio(double V);

private:
  std::vector<std::string> Headers;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace khaos

#endif // KHAOS_HARNESS_TABLERENDERER_H
