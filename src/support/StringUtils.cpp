//===- support/StringUtils.cpp - String helpers ---------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

using namespace khaos;

std::string khaos::formatStr(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out;
  if (Len > 0) {
    Out.resize(static_cast<size_t>(Len) + 1);
    std::vsnprintf(Out.data(), Out.size(), Fmt, Args);
    Out.resize(static_cast<size_t>(Len));
  }
  va_end(Args);
  return Out;
}

std::string khaos::join(const std::vector<std::string> &Parts,
                        const std::string &Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

bool khaos::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() &&
         S.compare(0, Prefix.size(), Prefix) == 0;
}

bool khaos::endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

std::vector<std::string> khaos::split(const std::string &S, char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string::npos) {
      Out.push_back(S.substr(Start));
      return Out;
    }
    Out.push_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

bool khaos::parseUnsigned(const std::string &Text, uint64_t &Out) {
  const bool Hex = Text.size() > 1 && Text[0] == '0' &&
                   (Text[1] == 'x' || Text[1] == 'X');
  const char *First = Text.data() + (Hex ? 2 : 0);
  const char *Last = Text.data() + Text.size();
  if (First == Last || (!Hex && Last - First > 1 && *First == '0'))
    return false;
  uint64_t N = 0;
  auto [End, EC] = std::from_chars(First, Last, N, Hex ? 16 : 10);
  if (EC != std::errc() || End != Last)
    return false;
  Out = N;
  return true;
}
