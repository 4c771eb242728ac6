//===- harness/TableRenderer.cpp - Fixed-width table output ----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/TableRenderer.h"

#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>

using namespace khaos;

TableRenderer::TableRenderer(std::vector<std::string> Headers)
    : Headers(std::move(Headers)) {}

void TableRenderer::addRow(std::vector<std::string> Cells) {
  // A short row would print blanks and a long one would lose its tail
  // columns, both silently; either way the labels no longer match the
  // data. Checked in every build type, not just under assertions.
  if (Cells.size() != Headers.size()) {
    std::fprintf(stderr,
                 "TableRenderer: row of %zu cells under %zu headers "
                 "(first cell '%s', first header '%s')\n",
                 Cells.size(), Headers.size(),
                 Cells.empty() ? "" : Cells.front().c_str(),
                 Headers.empty() ? "" : Headers.front().c_str());
    std::abort();
  }
  Rows.push_back(std::move(Cells));
}

std::string TableRenderer::render() const {
  std::vector<size_t> Widths(Headers.size(), 0);
  for (size_t C = 0; C != Headers.size(); ++C)
    Widths[C] = Headers[C].size();
  for (const auto &Row : Rows)
    for (size_t C = 0; C != Row.size(); ++C)
      Widths[C] = std::max(Widths[C], Row[C].size());

  auto RenderRow = [&](const std::vector<std::string> &Cells) {
    std::string Line = "|";
    for (size_t C = 0; C != Widths.size(); ++C)
      Line += " " + Cells[C] + std::string(Widths[C] - Cells[C].size(), ' ') +
              " |";
    return Line + "\n";
  };

  std::string Out = RenderRow(Headers);
  std::string Sep = "|";
  for (size_t C = 0; C != Widths.size(); ++C)
    Sep += std::string(Widths[C] + 2, '-') + "|";
  Out += Sep + "\n";
  for (const auto &Row : Rows)
    Out += RenderRow(Row);
  return Out;
}

void TableRenderer::print() const {
  std::fputs(render().c_str(), stdout);
}

std::string TableRenderer::fmtPercent(double V) {
  return formatStr("%.1f%%", V);
}

std::string TableRenderer::fmtRatio(double V) {
  return formatStr("%.3f", V);
}
