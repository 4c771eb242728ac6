//===- obfuscation/KhaosDriver.cpp - Obfuscation mode driver --------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "obfuscation/KhaosDriver.h"

#include "ir/Module.h"
#include "obfuscation/OLLVM.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <map>
#include <memory>
#include <set>

using namespace khaos;

const std::vector<ObfuscationMode> &khaos::allObfuscationModes() {
  static const std::vector<ObfuscationMode> Modes = {
      ObfuscationMode::Sub,     ObfuscationMode::Bog,
      ObfuscationMode::Fla10,   ObfuscationMode::MBA,
      ObfuscationMode::StrEnc,  ObfuscationMode::IndCall,
      ObfuscationMode::SplitBB, ObfuscationMode::Fission,
      ObfuscationMode::Fusion,  ObfuscationMode::FuFiSep,
      ObfuscationMode::FuFiOri, ObfuscationMode::FuFiAll,
  };
  return Modes;
}

const char *khaos::obfuscationModeName(ObfuscationMode Mode) {
  switch (Mode) {
  case ObfuscationMode::None:
    return "None";
  case ObfuscationMode::Sub:
    return "Sub";
  case ObfuscationMode::Bog:
    return "Bog";
  case ObfuscationMode::Fla:
    return "Fla";
  case ObfuscationMode::Fla10:
    return "Fla-10";
  case ObfuscationMode::Fission:
    return "Fission";
  case ObfuscationMode::Fusion:
    return "Fusion";
  case ObfuscationMode::FuFiSep:
    return "FuFi.sep";
  case ObfuscationMode::FuFiOri:
    return "FuFi.ori";
  case ObfuscationMode::FuFiAll:
    return "FuFi.all";
  case ObfuscationMode::MBA:
    return "MBA";
  case ObfuscationMode::StrEnc:
    return "StrEnc";
  case ObfuscationMode::IndCall:
    return "IndCall";
  case ObfuscationMode::SplitBB:
    return "SplitBB";
  }
  return "?";
}

bool khaos::parseObfuscationModeName(const std::string &Name,
                                     ObfuscationMode &Out) {
  auto Canon = [](const std::string &S) {
    std::string C;
    for (char Ch : S) {
      if (Ch == '.' || Ch == '-' || Ch == '_')
        continue;
      C += static_cast<char>(std::tolower(static_cast<unsigned char>(Ch)));
    }
    return C;
  };
  const std::string Want = Canon(Name);
  // Every enumerator: SplitBB is the last (see ObfuscationMode).
  for (unsigned M = 0; M <= static_cast<unsigned>(ObfuscationMode::SplitBB);
       ++M)
    if (Canon(obfuscationModeName(static_cast<ObfuscationMode>(M))) == Want) {
      Out = static_cast<ObfuscationMode>(M);
      return true;
    }
  return false;
}

bool khaos::modeUsesFission(ObfuscationMode Mode) {
  switch (Mode) {
  case ObfuscationMode::Fission:
  case ObfuscationMode::FuFiSep:
  case ObfuscationMode::FuFiOri:
  case ObfuscationMode::FuFiAll:
    return true;
  default:
    return false;
  }
}

FissionPhase khaos::runFissionPhase(Module &M, const FissionOptions &Opts) {
  FissionPhase Phase;
  // Functions that lose a region to fission are tracked by name (via their
  // instruction-count delta) for the FuFi.ori candidate set.
  std::map<std::string, size_t> SizeBefore;
  for (const auto &F : M.functions())
    SizeBefore[F->getName()] = F->instructionCount();
  Phase.SepFuncs = runFission(M, Phase.Stats, Opts);
  std::set<std::string> SepSet(Phase.SepFuncs.begin(), Phase.SepFuncs.end());
  for (const auto &F : M.functions()) {
    if (SepSet.count(F->getName()))
      continue;
    auto It = SizeBefore.find(F->getName());
    if (It != SizeBefore.end() && F->instructionCount() != It->second)
      Phase.ProcessedFuncs.insert(F->getName());
  }
  return Phase;
}

//===----------------------------------------------------------------------===//
// Step lists. obfuscateModule and finishFissionMode run a prefix of the
// same flat sequence of named steps, so a bisection prefix is a true
// prefix of the production pipeline.
//===----------------------------------------------------------------------===//

namespace {

/// One named step of a mode's pipeline. Run mutates the module and folds
/// its statistics into the shared StepState.
struct ObfStep {
  std::string Name;
  std::function<void(Module &)> Run;
};

/// State threaded through a step list: the accumulated result plus the
/// fission phase output the fusion step keys its candidate set on.
struct StepState {
  ObfuscationResult R;
  FissionPhase Phase;
  bool HavePhase = false;
};

/// The O-LLVM-style modes, one step each: {mode, step name, pass, ratio}.
/// Each pass folds its own counts into the shared PassReport.
struct OLLVMStep {
  ObfuscationMode Mode;
  const char *Name;
  unsigned (*Pass)(Module &, const OLLVMOptions &, PassReport *);
  double Ratio;
};
const OLLVMStep OLLVMSteps[] = {
    {ObfuscationMode::Sub, "substitution", runSubstitution, 1.0},
    {ObfuscationMode::Bog, "bogus-cfg", runBogusControlFlow, 1.0},
    {ObfuscationMode::Fla, "flattening", runFlattening, 1.0},
    {ObfuscationMode::Fla10, "flattening", runFlattening, 0.1},
    {ObfuscationMode::MBA, "mba", runMBASubstitution, 1.0},
    {ObfuscationMode::StrEnc, "string-encryption", runStringEncryption, 1.0},
    {ObfuscationMode::IndCall, "indirect-calls", runIndirectCalls, 1.0},
    {ObfuscationMode::SplitBB, "split-blocks", runSplitBasicBlocks, 1.0},
};

/// Fusion candidate names for the FuFi modes: eligible functions fission
/// did not touch, in module order (fusion's candidate ordering is part of
/// the reproducible-output contract).
std::vector<std::string> namesOfUnprocessed(const Module &M,
                                            const FissionPhase &Phase) {
  std::set<std::string> SepSet(Phase.SepFuncs.begin(), Phase.SepFuncs.end());
  std::vector<std::string> Out;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration() || F->isIntrinsic() || F->isNoObfuscate())
      continue;
    if (Phase.ProcessedFuncs.count(F->getName()) ||
        SepSet.count(F->getName()))
      continue;
    Out.push_back(F->getName());
  }
  return Out;
}

/// Builds the step list of (Mode, Opts). When \p IncludeFission is false
/// the caller has already run the fission prefix (finishFissionMode over a
/// module that carries it) and \p State->Phase is preset.
std::vector<ObfStep> buildSteps(ObfuscationMode Mode,
                                const KhaosOptions &Opts,
                                std::shared_ptr<StepState> State,
                                bool IncludeFission) {
  std::vector<ObfStep> Steps;

  if (modeUsesFission(Mode)) {
    if (IncludeFission)
      Steps.push_back({"fission", [State, Opts](Module &M) {
                         State->Phase = runFissionPhase(M, Opts.Fission);
                         State->HavePhase = true;
                         State->R.Fission = State->Phase.Stats;
                       }});
    if (Mode != ObfuscationMode::Fission)
      Steps.push_back({"fusion", [State, Opts, Mode](Module &M) {
                         assert(State->HavePhase &&
                                "fusion step needs the fission phase");
                         FusionOptions FuOpt = Opts.Fusion;
                         FuOpt.Seed = Opts.Seed;
                         const FissionPhase &Phase = State->Phase;
                         switch (Mode) {
                         case ObfuscationMode::FuFiSep:
                           FuOpt.RestrictTo = Phase.SepFuncs;
                           break;
                         case ObfuscationMode::FuFiOri:
                           FuOpt.RestrictTo = namesOfUnprocessed(M, Phase);
                           break;
                         case ObfuscationMode::FuFiAll:
                           FuOpt.RestrictTo = namesOfUnprocessed(M, Phase);
                           for (const std::string &S : Phase.SepFuncs)
                             FuOpt.RestrictTo.push_back(S);
                           break;
                         default:
                           break;
                         }
                         runFusion(M, State->R.Fusion, FuOpt);
                       }});
  } else if (Mode == ObfuscationMode::Fusion) {
    Steps.push_back({"fusion", [State, Opts](Module &M) {
                       FusionOptions FuOpt = Opts.Fusion;
                       FuOpt.Seed = Opts.Seed;
                       runFusion(M, State->R.Fusion, FuOpt);
                     }});
  } else {
    for (const OLLVMStep &S : OLLVMSteps)
      if (S.Mode == Mode)
        Steps.push_back({S.Name, [State, Opts, S](Module &M) {
                           OLLVMOptions Base;
                           Base.Seed = Opts.Seed;
                           Base.Ratio = S.Ratio;
                           State->R.BaselineSites =
                               S.Pass(M, Base, &State->R.Report);
                         }});
  }

  if (Opts.ExtraPass) {
    std::shared_ptr<Pass> SP = Opts.ExtraPass();
    Steps.push_back({"extra:" + std::string(SP->getName()),
                     [SP](Module &M) { SP->run(M); }});
  }

  if (Opts.RunPostOpt) {
    std::map<std::string, unsigned> Occurrence;
    for (auto &P : buildOptPassList(Opts.PostOptLevel)) {
      // simplifycfg's threading/merging would stitch every SplitBB cut
      // straight back together, but its unreachable-block removal is
      // still required (the inliner leaves dead continuation blocks that
      // fail the verifier's dominance check). Swap in the cleanup-only
      // flavour instead of dropping the slot.
      if (Mode == ObfuscationMode::SplitBB &&
          std::string(P->getName()) == "simplifycfg")
        P = createCFGCleanupPass();
      unsigned K = ++Occurrence[P->getName()];
      std::shared_ptr<Pass> SP = std::move(P);
      Steps.push_back({"post-opt:" + std::string(SP->getName()) + "#" +
                           std::to_string(K),
                       [SP](Module &M) { SP->run(M); }});
    }
  }
  return Steps;
}

} // namespace

ObfuscationResult khaos::finishFissionMode(Module &M, ObfuscationMode Mode,
                                           const KhaosOptions &Opts,
                                           const FissionPhase &Phase) {
  assert(modeUsesFission(Mode) && "mode has no fission prefix");
  assert(Opts.Steps != 0 && "the fission step has already run");
  auto State = std::make_shared<StepState>();
  State->Phase = Phase;
  State->HavePhase = true;
  State->R.Fission = Phase.Stats;
  std::vector<ObfStep> Steps =
      buildSteps(Mode, Opts, State, /*IncludeFission=*/false);
  // The fission step already ran and counts against Opts.Steps.
  for (size_t I = 0, E = std::min(Opts.Steps - 1, Steps.size()); I != E; ++I)
    Steps[I].Run(M);
  return State->R;
}

std::vector<std::string>
khaos::obfuscationStepNames(ObfuscationMode Mode, const KhaosOptions &Opts) {
  auto State = std::make_shared<StepState>();
  std::vector<std::string> Names;
  for (const ObfStep &S :
       buildSteps(Mode, Opts, State, /*IncludeFission=*/true))
    Names.push_back(S.Name);
  return Names;
}

ObfuscationResult khaos::obfuscateModule(Module &M, ObfuscationMode Mode,
                                         const KhaosOptions &Opts) {
  auto State = std::make_shared<StepState>();
  std::vector<ObfStep> Steps =
      buildSteps(Mode, Opts, State, /*IncludeFission=*/true);
  for (size_t I = 0, E = std::min(Opts.Steps, Steps.size()); I != E; ++I)
    Steps[I].Run(M);
  return State->R;
}
