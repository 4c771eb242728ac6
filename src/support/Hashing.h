//===- support/Hashing.h - Byte-wise FNV-1a ---------------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one byte-wise hash. Named RNG streams, artifact-key
/// fingerprints and addresses (hence disk-tier file names) and the
/// disk-envelope checksum are all FNV-1a over bytes, so every one of them
/// is this function and stays bit-identical across revisions.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_SUPPORT_HASHING_H
#define KHAOS_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>

namespace khaos {

/// 64-bit FNV-1a of \p Size bytes at \p Data, continuing from \p Hash
/// (the offset basis starts a fresh hash).
inline uint64_t fnv1a(const void *Data, size_t Size,
                      uint64_t Hash = 0xcbf29ce484222325ull) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= P[I];
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

} // namespace khaos

#endif // KHAOS_SUPPORT_HASHING_H
