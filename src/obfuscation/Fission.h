//===- obfuscation/Fission.h - The fission primitive ------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fission primitive (paper §3.2): separates regions of a function
/// into new sepFuncs, leaving a remFunc behind. Control flow is rebuilt by
/// encoding region exits in the sepFunc's i32 return value and dispatching
/// at the call site; data flow is rebuilt by passing every externally
/// defined value (notably alloca pointers) as parameters. Allocas used only
/// inside a region migrate into it first — the paper's data-flow reduction
/// ("lazy allocation").
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_OBFUSCATION_FISSION_H
#define KHAOS_OBFUSCATION_FISSION_H

#include "obfuscation/RegionIdentifier.h"

#include <string>
#include <vector>

namespace khaos {

class Function;
class Module;

/// Aggregate statistics reported in the paper's Table 2.
struct FissionStats {
  unsigned OriFuncs = 0;        ///< Functions considered.
  unsigned ProcessedFuncs = 0;  ///< Functions that lost at least a region.
  unsigned SepFuncs = 0;        ///< Functions created.
  unsigned SepBlocks = 0;       ///< Blocks moved into sepFuncs.
  unsigned LazyAllocas = 0;     ///< Allocas sunk by data-flow reduction.
  uint64_t OriInstructions = 0; ///< Pre-fission instruction count.
  uint64_t MovedInstructions = 0;

  void merge(const FissionStats &O) {
    OriFuncs += O.OriFuncs;
    ProcessedFuncs += O.ProcessedFuncs;
    SepFuncs += O.SepFuncs;
    SepBlocks += O.SepBlocks;
    LazyAllocas += O.LazyAllocas;
    OriInstructions += O.OriInstructions;
    MovedInstructions += O.MovedInstructions;
  }
  double fissionRatio() const {
    return OriFuncs ? static_cast<double>(SepFuncs) / OriFuncs : 0.0;
  }
  double avgBlocksPerSepFunc() const {
    return SepFuncs ? static_cast<double>(SepBlocks) / SepFuncs : 0.0;
  }
  double reductionRatio() const {
    return OriInstructions
               ? static_cast<double>(MovedInstructions) / OriInstructions
               : 0.0;
  }
};

/// Fission configuration.
struct FissionOptions {
  RegionOptions Regions;
};

/// Applies fission to every eligible function of \p M. Returns the names
/// of all created sepFuncs (needed by the FuFi.sep / FuFi.all drivers).
std::vector<std::string> runFission(Module &M, FissionStats &Stats,
                                    const FissionOptions &Opts = {});

/// Extracts one region from \p F into a new function. Returns the new
/// sepFunc. Exposed for unit tests.
Function *extractRegion(Module &M, Function &F, const Region &R,
                        const std::string &SepName, FissionStats &Stats);

} // namespace khaos

#endif // KHAOS_OBFUSCATION_FISSION_H
