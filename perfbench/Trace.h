//===- perfbench/Trace.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into the library. A
/// span has a name, a start and an end, the thread it ran on, its parent
/// (the innermost span open on the same thread) and the cell it belongs
/// to. Spans stay in memory; the benchmark writes them as Chrome trace-event
/// JSON when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_PERFBENCH_TRACE_H
#define KHAOS_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string Name;
  int64_t StartNs = 0; ///< Relative to the tracer's origin.
  int64_t EndNs = 0;
  uint32_t Tid = 0;
  int64_t Parent = -1; ///< Index of the enclosing span, -1 at top level.
  int64_t Cell = -1;   ///< Cell id, -1 when the span serves no one cell.
};

class Tracer {
public:
  Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Opens a span on the calling thread and returns its id.
  int64_t open(std::string Name, int64_t Cell);
  /// Closes span \p Id, which must be the innermost open span of the
  /// calling thread.
  void close(int64_t Id);

  /// Total self time in ms per span name: each span's duration minus the
  /// durations of its child spans.
  std::map<std::string, double> selfMs() const;
  /// Durations in ms of every span called \p Name.
  std::vector<double> durationsMs(const std::string &Name) const;
  /// Wall time in ms from the first span start to the last span end.
  double wallMs() const;

  /// Writes every span as a Chrome trace-event "X" event.
  bool writeChromeJson(const std::string &Path) const;

private:
  Clock::time_point Origin;
  mutable std::mutex M;
  std::vector<Span> Spans;
  std::map<std::thread::id, uint32_t> ThreadIds;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, std::string Name, int64_t Cell)
      : T(T), Id(T ? T->open(std::move(Name), Cell) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  int64_t Id;
};

/// Runs \p Fn inside a span called \p Name and returns its result.
template <typename F>
auto traced(Tracer *T, const std::string &Name, int64_t Cell, F &&Fn) {
  ScopedSpan S(T, Name, Cell);
  return Fn();
}

/// Nearest-rank percentile (\p P in [0, 100]) of \p Values; 0 when empty.
double percentile(std::vector<double> Values, double P);

/// Median of \p Values; 0 when empty.
double median(std::vector<double> Values);

} // namespace perfbench

#endif // KHAOS_PERFBENCH_TRACE_H
