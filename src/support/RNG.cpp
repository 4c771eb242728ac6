//===- support/RNG.cpp - Deterministic random streams ---------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/RNG.h"

#include "support/Hashing.h"

using namespace khaos;

RNG RNG::fromName(const std::string &Name, uint64_t Salt) {
  // The basis is FNV-1a's offset basis short of its last decimal digit.
  // Every named stream (workloads, cell seeds, pass decisions) derives
  // from it, so it stays.
  uint64_t Hash = fnv1a(Name.data(), Name.size(), 1469598103934665603ull);
  Hash ^= Salt + 0x9e3779b97f4a7c15ull;
  return RNG(Hash);
}

uint64_t RNG::next() {
  // SplitMix64 step.
  State += 0x9e3779b97f4a7c15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t RNG::nextBelow(uint64_t Bound) {
  assert(Bound != 0 && "nextBelow(0) is undefined");
  // Rejection-free multiply-shift reduction; bias is negligible for our
  // bounds (all far below 2^32).
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(next()) * Bound) >> 64);
}

int64_t RNG::nextRange(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "empty range");
  return Lo + static_cast<int64_t>(nextBelow(
                  static_cast<uint64_t>(Hi - Lo) + 1));
}

double RNG::nextDouble() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

bool RNG::nextBool(double P) { return nextDouble() < P; }
