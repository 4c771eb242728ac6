//===- harness/DiskCache.cpp - On-disk artifact tier ----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/DiskCache.h"

#include "diffing/DiffWorkerProtocol.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <tuple>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace khaos;

namespace {

/// Everything of an artifact file ahead of its payload bytes. The full
/// key makes an address collision read as a miss rather than as another
/// key's bytes; the FNV-1a checksum covers everything after itself (key
/// and payload), so any bit flip in either is caught.
struct Envelope {
  uint32_t Magic = DiskCacheMagic;
  uint16_t Version = DiskCacheVersion;
  uint64_t Checksum = 0;
  ArtifactKey Key;
  uint32_t PayloadBytes = 0;
};

/// Where the checksummed bytes start: after magic, version and checksum.
constexpr size_t ChecksummedOff = 4 + 2 + 8;

template <typename IO, typename Env> void envelopeLayout(IO &X, Env &E) {
  X.u32(E.Magic);
  X.u16(E.Version);
  X.u64(E.Checksum);
  X.str(E.Key.Workload);
  X.u8(E.Key.Mode);
  X.u64(E.Key.Seed);
  X.u8(E.Key.Stage);
  X.u64(E.Key.Extra);
  X.u64(E.Key.SourceHash);
  X.u32(E.PayloadBytes);
}

bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Out) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return false;
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    return false;
  }
  Out.resize(static_cast<size_t>(St.st_size));
  size_t Done = 0;
  while (Done != Out.size()) {
    ssize_t N = ::read(Fd, Out.data() + Done, Out.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break; // The file shrank under us; validation will reject it.
    Done += static_cast<size_t>(N);
  }
  ::close(Fd);
  Out.resize(Done);
  return true;
}

bool hasSuffix(const std::string &S, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return S.size() >= N && S.compare(S.size() - N, N, Suffix) == 0;
}

} // namespace

DiskCache::DiskCache(Config C) : Cfg(std::move(C)) {
  // One mkdir level is enough for the common "fresh --cache-dir" case;
  // a missing parent surfaces naturally as every put failing to open its
  // tmp file (the cache then just never hits, it does not crash).
  ::mkdir(Cfg.Dir.c_str(), 0755);

  struct Seen {
    std::string Name;
    uint64_t Bytes;
    int64_t Mtime;
  };
  std::vector<Seen> Found;
  if (DIR *D = ::opendir(Cfg.Dir.c_str())) {
    while (struct dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      std::string Path = Cfg.Dir + "/" + Name;
      if (hasSuffix(Name, ".tmp")) {
        ::unlink(Path.c_str()); // A crashed writer's leftovers.
        continue;
      }
      if (!hasSuffix(Name, ".art"))
        continue;
      struct stat St;
      if (::stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
        continue;
      // Nanosecond mtime: whole-second st_mtime collapses every artifact
      // a fast run writes into one tie, and the startup eviction order
      // then depends on nothing but the name — not on actual recency.
      int64_t MtimeNs = static_cast<int64_t>(St.st_mtim.tv_sec) *
                            1000000000ll +
                        static_cast<int64_t>(St.st_mtim.tv_nsec);
      Found.push_back(
          {std::move(Name), static_cast<uint64_t>(St.st_size), MtimeNs});
    }
    ::closedir(D);
  }
  // Seed the LRU order from mtimes: the stalest file on disk is the first
  // eviction candidate of this process. Ties (e.g. a filesystem that
  // truncates timestamps) break by name so the order is deterministic.
  std::sort(Found.begin(), Found.end(), [](const Seen &A, const Seen &B) {
    return std::tie(A.Mtime, A.Name) < std::tie(B.Mtime, B.Name);
  });
  for (Seen &S : Found) {
    Files[S.Name] = {S.Bytes, ++UseTick};
    TotalBytes += S.Bytes;
  }
}

std::string DiskCache::pathFor(const ArtifactKey &K) const {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(K.address()));
  return std::string(artifactStageName(K.Stage)) + "-" + Hex + ".art";
}

void DiskCache::forgetLocked(const std::string &Name) {
  auto It = Files.find(Name);
  if (It == Files.end())
    return;
  TotalBytes -= It->second.Bytes;
  Files.erase(It);
}

DiskGetStatus DiskCache::get(const ArtifactKey &K,
                             std::vector<uint8_t> &Payload) {
  std::string Name = pathFor(K);
  std::string Path = Cfg.Dir + "/" + Name;

  std::lock_guard<std::mutex> Lock(M);
  std::vector<uint8_t> Raw;
  if (!readWholeFile(Path, Raw)) {
    // Not indexed or unreadable — either way, nothing to serve. Another
    // process may have evicted a file we still index; drop it.
    forgetLocked(Name);
    return DiskGetStatus::Miss;
  }

  // Validate the envelope: header, checksum over the remainder, then the
  // full key.
  auto Reject = [&]() {
    ::unlink(Path.c_str());
    forgetLocked(Name);
    return DiskGetStatus::Corrupt;
  };
  WireReader R(Raw);
  Envelope E;
  envelopeLayout(R, E);
  if (!R.ok() || E.Magic != DiskCacheMagic ||
      E.Version != DiskCacheVersion ||
      E.Checksum != fnv1a(Raw.data() + ChecksummedOff,
                          Raw.size() - ChecksummedOff))
    return Reject();
  if (!(E.Key == K)) {
    // A valid artifact for a different key at the same 64-bit address:
    // serve nothing, keep the file (the next put for our key overwrites).
    return DiskGetStatus::Miss;
  }
  if (R.remaining() != E.PayloadBytes)
    return Reject();
  Payload.assign(Raw.end() - E.PayloadBytes, Raw.end());

  // Refresh the LRU tick; (re)index files another process wrote.
  FileInfo &FI = Files[Name];
  TotalBytes += Raw.size() - FI.Bytes;
  FI.Bytes = Raw.size();
  FI.LastUse = ++UseTick;
  return DiskGetStatus::Hit;
}

void DiskCache::evictLocked(const std::string &Keep) {
  if (Cfg.MaxBytes == 0)
    return;
  while (TotalBytes > Cfg.MaxBytes) {
    auto Victim = Files.end();
    for (auto It = Files.begin(); It != Files.end(); ++It)
      if (It->first != Keep &&
          (Victim == Files.end() ||
           It->second.LastUse < Victim->second.LastUse))
        Victim = It;
    if (Victim == Files.end())
      return; // Only the just-written file remains.
    ::unlink((Cfg.Dir + "/" + Victim->first).c_str());
    TotalBytes -= Victim->second.Bytes;
    Files.erase(Victim);
  }
}

unsigned DiskCache::put(const ArtifactKey &K,
                        const std::vector<uint8_t> &Payload) {
  Envelope E; // The checksum is filled in once the rest is written.
  E.Key = K;
  E.PayloadBytes = static_cast<uint32_t>(Payload.size());
  WireWriter File;
  envelopeLayout(File, E);
  File.Buf.insert(File.Buf.end(), Payload.begin(), Payload.end());
  uint64_t Checksum = fnv1a(File.Buf.data() + ChecksummedOff,
                            File.Buf.size() - ChecksummedOff);
  std::memcpy(File.Buf.data() + ChecksummedOff - 8, &Checksum, 8);

  if (Cfg.MaxBytes != 0 && File.Buf.size() > Cfg.MaxBytes)
    return 0; // Larger than the whole cache: not storable.

  std::string Name = pathFor(K);
  std::string Path = Cfg.Dir + "/" + Name;

  std::lock_guard<std::mutex> Lock(M);
  // Tmp name is unique per (process, put): concurrent writers never step
  // on each other's staging file, and rename() makes publication atomic.
  std::string Tmp = Path + "." + std::to_string(::getpid()) + "-" +
                    std::to_string(++TmpCounter) + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return 0;
  size_t Done = 0;
  bool WriteOk = true;
  while (Done != File.Buf.size()) {
    ssize_t N = ::write(Fd, File.Buf.data() + Done, File.Buf.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      WriteOk = false;
      break;
    }
    Done += static_cast<size_t>(N);
  }
  ::close(Fd);
  if (!WriteOk || ::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return 0; // Disk full / permission trouble: the cache degrades to
              // a no-op rather than failing the computation.
  }

  FileInfo &FI = Files[Name];
  TotalBytes += File.Buf.size() - FI.Bytes;
  FI.Bytes = File.Buf.size();
  FI.LastUse = ++UseTick;

  size_t Before = Files.size();
  evictLocked(Name);
  return static_cast<unsigned>(Before - Files.size());
}

uint64_t DiskCache::totalBytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return TotalBytes;
}

size_t DiskCache::fileCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Files.size();
}
