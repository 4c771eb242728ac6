//===- diffing/DiffTool.h - Binary diffing tool interface -------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five confrontation targets of the paper (Table 1), reimplemented as
/// published-algorithm analogues over our BinaryImage:
///
///   | tool        | granularity | symbols | call graph | heavy        |
///   |-------------|-------------|---------|------------|--------------|
///   | BinDiff     | function    | yes     | yes        | no           |
///   | VulSeeker   | function    | no      | no         | time+memory  |
///   | Asm2Vec     | function    | no      | no         | no           |
///   | SAFE        | function    | no      | no         | no           |
///   | DeepBinDiff | basic block | no      | yes        | time+memory  |
///
/// Two post-paper backends extend the roster beyond Table 1 — the
/// obfuscation-resilient families the arms race should be measured
/// against (ROADMAP "more diffing backends"):
///
///   | jtrans      | function    | no      | no         | time         |
///   | orcas       | function    | no      | yes        | time         |
///   | semdiff     | function    | no      | yes        | time         |
///
/// SAFE also has a subprocess-served twin, `safe-oop`, registered by the
/// SubprocessDiffTool adapter and bit-identical to the in-process tool;
/// it proves the adapter for every backend.
///
/// Each tool ranks, for every function of binary A (the un-obfuscated
/// reference), the functions of binary B (the obfuscated build) by
/// similarity. The harness computes Precision@1 / escape@k from the
/// rankings with the paper's relaxed pairing judgment. A tool supplies
/// per-pair scores; rankByScore turns them into rankings the same way
/// for every tool.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_DIFFING_DIFFTOOL_H
#define KHAOS_DIFFING_DIFFTOOL_H

#include "diffing/BinaryFeatures.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace khaos {

/// Diffing output: per-A-function candidate rankings plus a BinDiff-style
/// whole-binary similarity score in [0, 1].
struct DiffResult {
  /// Rankings[i] lists B-function indices, most similar first.
  std::vector<std::vector<uint32_t>> Rankings;
  double WholeBinarySimilarity = 0.0;
};

/// Matching granularity of a tool (paper Table 1). An enum so registry
/// consumers can branch on it without string compares.
enum class ToolGranularity : uint8_t { Function, BasicBlock };

/// Printable granularity, spelled as in the paper's Table 1.
const char *toolGranularityName(ToolGranularity G);

/// Runtime failure of a diffing backend — a subprocess worker timed out,
/// crashed past its retry, or returned garbage. Matrix front-ends catch
/// this per (cell × tool) task, report the task as failed and keep the
/// run going; a misconfigured backend must never stall a shard.
class DiffToolError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Static tool characteristics (paper Table 1).
struct ToolTraits {
  ToolGranularity Granularity = ToolGranularity::Function;
  bool UsesSymbols = false;
  bool TimeConsuming = false;
  bool MemoryConsuming = false;
  bool UsesCallGraph = false;
};

/// Abstract diffing technique.
class DiffTool {
public:
  virtual ~DiffTool();
  virtual const char *getName() const = 0;
  virtual ToolTraits getTraits() const = 0;
  virtual DiffResult diff(const BinaryImage &A, const ImageFeatures &FA,
                          const BinaryImage &B,
                          const ImageFeatures &FB) const = 0;
};

/// The ranking step of every backend: scores each (A, B) function pair
/// with \p Score(I, J), ranks B's function indices for every A function
/// by descending score (ties in index order), and sets
/// WholeBinarySimilarity to the mean over A's functions of their best
/// score clamped to [\p Lo, \p Hi]. \p Score is a template parameter so
/// the per-pair call inlines into the scoring loop.
template <typename ScoreFn>
DiffResult rankByScore(size_t NA, size_t NB, ScoreFn &&Score,
                       double Lo = -HUGE_VAL, double Hi = HUGE_VAL) {
  DiffResult R;
  R.Rankings.resize(NA);
  std::vector<double> Sim(NB);
  double TopSum = 0.0;
  for (size_t I = 0; I != NA; ++I) {
    for (size_t J = 0; J != NB; ++J)
      Sim[J] = Score(I, J);
    std::vector<uint32_t> &Order = R.Rankings[I];
    Order.resize(NB);
    std::iota(Order.begin(), Order.end(), 0u);
    std::stable_sort(Order.begin(), Order.end(),
                     [&](uint32_t X, uint32_t Y) { return Sim[X] > Sim[Y]; });
    if (NB)
      TopSum += std::min(std::max(Sim[Order.front()], Lo), Hi);
  }
  R.WholeBinarySimilarity = NA ? TopSum / NA : 0.0;
  return R;
}

std::unique_ptr<DiffTool> createBinDiffTool();
std::unique_ptr<DiffTool> createVulSeekerTool();
std::unique_ptr<DiffTool> createAsm2VecTool();
std::unique_ptr<DiffTool> createSafeTool();
std::unique_ptr<DiffTool> createDeepBinDiffTool();
std::unique_ptr<DiffTool> createJTransTool();
std::unique_ptr<DiffTool> createOrcasTool();
std::unique_ptr<DiffTool> createSemDiffTool();

//===----------------------------------------------------------------------===//
// Tool registry: a string-keyed factory table. The five paper tools are
// pre-registered in Table-1 order; new backends (an ORCAS- or jTrans-style
// analogue) register themselves and immediately become addressable by every
// matrix bench through EvalScheduler::precisionMatrix.
//===----------------------------------------------------------------------===//

using DiffToolFactory = std::function<std::unique_ptr<DiffTool>()>;

/// Registers \p Factory under \p Name. Returns false (and registers
/// nothing) if the name is already taken. Thread-safe.
bool registerDiffTool(const std::string &Name, DiffToolFactory Factory);

/// Instantiates the registered tool \p Name. Unknown names are a hard
/// error (message + abort): a misspelled tool would otherwise render as an
/// all-zero figure row.
std::unique_ptr<DiffTool> createDiffTool(const std::string &Name);

/// Like createDiffTool, but returns nullptr for unknown names.
std::unique_ptr<DiffTool> tryCreateDiffTool(const std::string &Name);

/// True if \p Name is registered.
bool isDiffToolRegistered(const std::string &Name);

/// Registered names, in registration order (the five paper tools first, in
/// Table-1 order: BinDiff, VulSeeker, Asm2Vec, SAFE, DeepBinDiff).
std::vector<std::string> registeredToolNames();

/// One instance of every registered tool, in registration order.
std::vector<std::unique_ptr<DiffTool>> createAllDiffTools();

} // namespace khaos

#endif // KHAOS_DIFFING_DIFFTOOL_H
