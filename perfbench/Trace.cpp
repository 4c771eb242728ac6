//===- perfbench/Trace.cpp - In-memory span recorder ----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

/// Spans open on this thread, innermost last. One tracer records at a
/// time, so a single per-thread stack serves every tracer.
thread_local std::vector<int64_t> OpenSpans;

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

Tracer::Tracer() : Origin(Clock::now()) {}

int64_t Tracer::open(std::string Name, int64_t Cell) {
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Origin)
                    .count();
  int64_t Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  std::lock_guard<std::mutex> Lock(M);
  auto [It, Inserted] = ThreadIds.try_emplace(
      std::this_thread::get_id(), static_cast<uint32_t>(ThreadIds.size()));
  Span S;
  S.Name = std::move(Name);
  S.StartNs = Now;
  S.Tid = It->second;
  S.Parent = Parent;
  S.Cell = Cell;
  Spans.push_back(std::move(S));
  int64_t Id = static_cast<int64_t>(Spans.size()) - 1;
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::close(int64_t Id) {
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Origin)
                    .count();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(M);
  Spans[static_cast<size_t>(Id)].EndNs = Now;
}

std::map<std::string, double> Tracer::selfMs() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, double> Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[Spans[I].Name] +=
        static_cast<double>(Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) /
        1e6;
  return Out;
}

std::vector<double> Tracer::durationsMs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1e6);
  return Out;
}

double Tracer::wallMs() const {
  std::lock_guard<std::mutex> Lock(M);
  if (Spans.empty())
    return 0.0;
  int64_t First = Spans.front().StartNs, Last = Spans.front().EndNs;
  for (const Span &S : Spans) {
    First = std::min(First, S.StartNs);
    Last = std::max(Last, S.EndNs);
  }
  return static_cast<double>(Last - First) / 1e6;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(M);
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"cell\":%lld}}\n",
                 I ? "," : "", jsonEscape(S.Name).c_str(), S.Tid,
                 static_cast<double>(S.StartNs) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3, I,
                 static_cast<long long>(S.Parent),
                 static_cast<long long>(S.Cell));
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Values.size())));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2.0;
}
