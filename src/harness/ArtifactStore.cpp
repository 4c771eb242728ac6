//===- harness/ArtifactStore.cpp - Content-addressed artifacts ------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/ArtifactStore.h"

#include "harness/DiskCache.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <tuple>

using namespace khaos;

ArtifactStore::ArtifactStore(Config C) : Cfg(std::move(C)) {
  if (!Cfg.CacheDir.empty())
    Disk.reset(new DiskCache(
        DiskCache::Config{Cfg.CacheDir, Cfg.DiskMaxBytes}));
}

ArtifactStore::~ArtifactStore() = default;

const char *khaos::artifactStageName(ArtifactStage Stage) {
  switch (Stage) {
  case ArtifactStage::Baseline:
    return "baseline";
  case ArtifactStage::BaselineRun:
    return "baseline-run";
  case ArtifactStage::BaselineImage:
    return "baseline-image";
  case ArtifactStage::FissionStage:
    return "fission-stage";
  case ArtifactStage::ObfuscatedImage:
    return "obfuscated-image";
  case ArtifactStage::DiffOutcome:
    return "diff-outcome";
  case ArtifactStage::PrecompiledModule:
    return "precompiled-module";
  case ArtifactStage::Frontend:
    return "frontend";
  case ArtifactStage::NumStages:
    break;
  }
  return "?";
}

bool ArtifactKey::operator<(const ArtifactKey &O) const {
  return std::tie(Stage, Workload, Mode, Seed, Extra, SourceHash) <
         std::tie(O.Stage, O.Workload, O.Mode, O.Seed, O.Extra,
                  O.SourceHash);
}

bool ArtifactKey::operator==(const ArtifactKey &O) const {
  return Stage == O.Stage && Workload == O.Workload && Mode == O.Mode &&
         Seed == O.Seed && Extra == O.Extra && SourceHash == O.SourceHash;
}

uint64_t ArtifactKey::address() const {
  // The workload name's bytes, then each numeric field as 8
  // little-endian bytes.
  uint64_t H = fnv1a(Workload.data(), Workload.size());
  for (uint64_t V : {static_cast<uint64_t>(Mode), Seed,
                     static_cast<uint64_t>(Stage), Extra, SourceHash}) {
    uint8_t LE[8];
    for (int I = 0; I != 8; ++I)
      LE[I] = static_cast<uint8_t>(V >> (I * 8));
    H = fnv1a(LE, 8, H);
  }
  return H;
}

namespace {

using Counters = ArtifactStore::StageCounters;
constexpr size_t NumStages = static_cast<size_t>(ArtifactStage::NumStages);

/// Every counter of a stage, for the counter-wise arithmetic.
constexpr uint64_t Counters::*CounterFields[] = {
    &Counters::Hits,     &Counters::Misses,     &Counters::Evictions,
    &Counters::DiskHits, &Counters::DiskMisses, &Counters::DiskEvictions,
    &Counters::DiskCorrupt};

/// Sets \p S's totals to the sum over its stages.
ArtifactStore::Snapshot &sumStages(ArtifactStore::Snapshot &S) {
  Counters &Total = S;
  Total = {};
  for (const Counters &C : S.PerStage)
    Total += C;
  return S;
}

} // namespace

Counters &Counters::operator+=(const Counters &O) {
  for (uint64_t Counters::*F : CounterFields)
    this->*F += O.*F;
  return *this;
}

Counters &Counters::operator-=(const Counters &O) {
  for (uint64_t Counters::*F : CounterFields)
    this->*F -= O.*F;
  return *this;
}

ArtifactStore::Snapshot
ArtifactStore::Snapshot::delta(const Snapshot &After,
                               const Snapshot &Before) {
  Snapshot D = After;
  for (size_t S = 0; S != NumStages; ++S)
    D.PerStage[S] -= Before.PerStage[S];
  D.BytesSaved -= Before.BytesSaved;
  return sumStages(D);
}

ArtifactStore::Snapshot &
ArtifactStore::Snapshot::operator+=(const Snapshot &O) {
  for (size_t S = 0; S != NumStages; ++S)
    PerStage[S] += O.PerStage[S];
  BytesSaved += O.BytesSaved;
  return sumStages(*this);
}

std::shared_ptr<const void>
ArtifactStore::diskLoad(const ArtifactKey &K, const ArtifactCodec *Codec) {
  std::vector<uint8_t> Payload;
  DiskGetStatus S = Disk->get(K, Payload);
  std::shared_ptr<const void> Value;
  if (S == DiskGetStatus::Hit) {
    Value = Codec->Decode(Payload.data(), Payload.size());
    if (!Value)
      S = DiskGetStatus::Corrupt; // Envelope valid, payload not: the
                                  // codec rejected it. Recompute.
  }
  std::lock_guard<std::mutex> Lock(M);
  Counters &C = Stages[static_cast<size_t>(K.Stage)];
  switch (S) {
  case DiskGetStatus::Hit:
    C.DiskHits += 1;
    break;
  case DiskGetStatus::Corrupt:
    C.DiskCorrupt += 1;
    // A corrupt entry is also a miss: the artifact gets recomputed.
    C.DiskMisses += 1;
    break;
  case DiskGetStatus::Miss:
    C.DiskMisses += 1;
    break;
  }
  return Value;
}

void ArtifactStore::diskStore(const ArtifactKey &K, const void *Value,
                              const ArtifactCodec *Codec) {
  std::vector<uint8_t> Payload;
  if (!Codec->Encode(Value, Payload))
    return; // The codec declined (e.g. a failure artifact).
  unsigned Evicted = Disk->put(K, Payload);
  if (Evicted == 0)
    return;
  std::lock_guard<std::mutex> Lock(M);
  Stages[static_cast<size_t>(K.Stage)].DiskEvictions += Evicted;
}

void ArtifactStore::trimLocked() {
  if (Cfg.MaxBytes == 0)
    return;
  while (TotalBytes > Cfg.MaxBytes) {
    // Least-recently-used *ready* entry; in-flight entries are pinned
    // (evicting one would break its single-flight waiters). Linear scan:
    // stores hold hundreds of artifacts, and eviction is off the
    // compute path.
    auto Victim = Artifacts.end();
    for (auto It = Artifacts.begin(); It != Artifacts.end(); ++It)
      if (It->second.Ready &&
          (Victim == Artifacts.end() ||
           It->second.LastUse < Victim->second.LastUse))
        Victim = It;
    if (Victim == Artifacts.end())
      return; // Everything left is pinned.
    Stages[static_cast<size_t>(Victim->first.Stage)].Evictions += 1;
    TotalBytes -= Victim->second.CostBytes;
    // Dropping the entry only stops retention: requesters holding the
    // shared_ptr (or mid-wait on the shared_future) are unaffected.
    Artifacts.erase(Victim);
  }
}

void ArtifactStore::markReady(const ArtifactKey &K) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Artifacts.find(K);
  if (It == Artifacts.end())
    return; // A concurrent clear() dropped the whole map.
  It->second.Ready = true;
  trimLocked();
}

std::shared_ptr<const void> ArtifactStore::getOrComputeErased(
    const ArtifactKey &K, uint64_t CostBytes, std::type_index Type,
    const std::function<std::shared_ptr<const void>()> &F,
    const ArtifactCodec *Codec) {
  size_t StageIdx = static_cast<size_t>(K.Stage);
  assert(StageIdx < NumStages && "key has an invalid stage");

  if (!Cfg.Enabled) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stages[StageIdx].Misses += 1;
    }
    return F();
  }

  std::promise<std::shared_ptr<const void>> Promise;
  std::shared_future<std::shared_ptr<const void>> Existing;
  bool Hit = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Artifacts.find(K);
    if (It != Artifacts.end()) {
      assert(It->second.Type == Type &&
             "one key requested with two artifact types");
      Stages[StageIdx].Hits += 1;
      BytesSaved += It->second.CostBytes;
      It->second.LastUse = ++UseTick;
      Existing = It->second.Value;
      Hit = true;
    } else {
      Stages[StageIdx].Misses += 1;
      Entry E{Promise.get_future().share(), Type, CostBytes,
              /*LastUse=*/++UseTick, /*Ready=*/false};
      Artifacts.emplace(K, std::move(E));
      TotalBytes += CostBytes;
      // The new entry itself is in-flight (pinned); trimming here can
      // only evict colder ready entries.
      trimLocked();
    }
  }

  // Waiting (outside the lock) on a computation another thread started
  // still counts as a hit: the work is not redone.
  if (Hit)
    return Existing.get();

  // First requester: memory missed, so consult the disk tier before
  // computing. Both the disk I/O and the compute run outside the lock
  // (single-flight: waiters block on the shared future either way).
  bool UseDisk = Disk && Codec;
  if (UseDisk) {
    if (std::shared_ptr<const void> Value = diskLoad(K, Codec)) {
      Promise.set_value(Value);
      markReady(K);
      return Value;
    }
  }

  // Compute. If the computation throws, the exception must reach the
  // promise too — otherwise every later requester of this key would
  // block forever on a never-ready future.
  std::shared_ptr<const void> Value;
  try {
    Value = F();
  } catch (...) {
    Promise.set_exception(std::current_exception());
    // Exceptional artifacts become ready (and thus evictable) like
    // values: a hit rethrows, an eviction allows a retry.
    markReady(K);
    throw;
  }
  Promise.set_value(Value);
  markReady(K);
  if (UseDisk && Value)
    diskStore(K, Value.get(), Codec);
  return Value;
}

ArtifactStore::Snapshot ArtifactStore::stats() const {
  Snapshot S;
  {
    std::lock_guard<std::mutex> Lock(M);
    std::copy(std::begin(Stages), std::end(Stages), S.PerStage);
    S.BytesSaved = BytesSaved;
  }
  return sumStages(S);
}

size_t ArtifactStore::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Artifacts.size();
}

uint64_t ArtifactStore::totalBytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return TotalBytes;
}

bool ArtifactStore::contains(const ArtifactKey &K) const {
  std::lock_guard<std::mutex> Lock(M);
  return Artifacts.count(K) != 0;
}

void ArtifactStore::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Artifacts.clear();
  TotalBytes = 0;
}
