//===- obfuscation/Fusion.h - The fusion primitive --------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fusion primitive (paper §3.3): aggregates pairs of functions into
/// fusFuncs selected by an i32 ctrl parameter. Includes
///   - parameter list compression (positional merge of compatible types),
///   - return type determination (void absorbs; otherwise the wider type),
///   - direct call-site rewriting (ctrl constant + zero padding),
///   - tagged function pointers for intra-module indirect calls (tag in
///     bits 1-2 of the 16-byte-aligned address, paper appendix A.1),
///   - trampolines for exported / module-escaping functions,
///   - deep fusion of innocuous blocks (paper §3.3.4).
///
/// Functions whose address is taken but does not escape are only paired
/// when their shared parameter positions have identical types and the
/// fused return type equals theirs (or theirs is void): an indirect call
/// site knows only the static callee type, so the fusFunc ABI must be
/// reconstructible from it. The paper leaves this detail implicit; this
/// paragraph is where the constraint is documented.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_OBFUSCATION_FUSION_H
#define KHAOS_OBFUSCATION_FUSION_H

#include <cstdint>
#include <string>
#include <vector>

namespace khaos {

class Function;
class Module;

/// Aggregate statistics reported in the paper's Table 2.
struct FusionStats {
  unsigned Candidates = 0;    ///< Eligible functions.
  unsigned Fused = 0;         ///< Functions aggregated (2 per pair).
  unsigned Pairs = 0;         ///< fusFuncs created.
  unsigned CompressedParams = 0; ///< Parameters saved by compression.
  unsigned DeepMergedBlocks = 0; ///< Innocuous blocks merged.
  unsigned Trampolines = 0;
  unsigned TaggedPointerSites = 0; ///< Rewritten indirect call sites.

  void merge(const FusionStats &O) {
    Candidates += O.Candidates;
    Fused += O.Fused;
    Pairs += O.Pairs;
    CompressedParams += O.CompressedParams;
    DeepMergedBlocks += O.DeepMergedBlocks;
    Trampolines += O.Trampolines;
    TaggedPointerSites += O.TaggedPointerSites;
  }
  double fusionRatio() const {
    return Candidates ? static_cast<double>(Fused) / Candidates : 0.0;
  }
  double avgReducedParams() const {
    return Pairs ? static_cast<double>(CompressedParams) / Pairs : 0.0;
  }
  double avgDeepBlocks() const {
    return Pairs ? static_cast<double>(DeepMergedBlocks) / Pairs : 0.0;
  }
};

/// Fusion configuration.
struct FusionOptions {
  uint64_t Seed = 0x5eed;      ///< Pairing shuffle seed.
  bool EnableDeepFusion = true;
  /// When non-empty, only these functions are considered (FuFi modes).
  std::vector<std::string> RestrictTo;
};

/// Runs fusion over \p M. Returns statistics via \p Stats.
void runFusion(Module &M, FusionStats &Stats,
               const FusionOptions &Opts = {});

/// Fuses exactly \p F and \p G (exposed for unit tests). Returns the
/// fusFunc, or null when the pair violates a fusion constraint.
Function *fusePair(Module &M, Function *F, Function *G, FusionStats &Stats,
                   const FusionOptions &Opts = {});

} // namespace khaos

#endif // KHAOS_OBFUSCATION_FUSION_H
