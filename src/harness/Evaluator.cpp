//===- harness/Evaluator.cpp - Staged evaluation pipeline -----------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/Evaluator.h"

#include "diffing/DiffWorkerProtocol.h"
#include "diffing/Metrics.h"
#include "frontend/IRGen.h"
#include "vm/PrecompiledInterpreter.h"
#include "ir/Verifier.h"
#include "support/Hashing.h"
#include "transform/Cloning.h"

using namespace khaos;

namespace {

/// FNV-1a of the workload's MiniC source: keys must distinguish two
/// workloads that merely share a name (the content-address part of the
/// ArtifactKey contract).
uint64_t fingerprintSource(const Workload &W) {
  return fnv1a(W.Source.data(), W.Source.size());
}

/// The DiffOutcome stage's Extra: the tool name's FNV-1a (two tools over
/// the same cell must not alias) mixed with the baseline build config. A
/// cell diffed against an O0 reference is a different experiment than
/// the same cell against O2 — the keys must say so.
uint64_t fingerprintToolAndConfig(const std::string &Name,
                                  const BuildConfig &BC) {
  uint64_t F = fnv1a(Name.data(), Name.size());
  F ^= BC.fingerprint() + 0x9e3779b97f4a7c15ull + (F << 6) + (F >> 2);
  return F;
}

/// Stage-key fingerprint of the fission options (fission has no seed; its
/// output is a pure function of the module and these knobs).
uint64_t fingerprintFission(const FissionOptions &Opts) {
  uint64_t F = 0xcbf29ce484222325ull;
  auto Mix = [&F](uint64_t V) {
    F ^= V;
    F *= 0x100000001b3ull;
  };
  Mix(Opts.Regions.MinBlocks);
  Mix(Opts.Regions.IgnoreFrequencyCost);
  return F;
}

//===----------------------------------------------------------------------===//
// Disk-tier codecs. Only plain-data stages have one: the module-holding
// stages (Baseline, FissionStage, PrecompiledModule) would need an IR
// serializer to persist, and recompiling them is exactly what a disk-hit
// on the downstream image/run/diff stages avoids anyway. Each payload is
// one layout function over the diff-worker wire classes, so a decoded
// artifact is field-for-field identical to the computed one (doubles
// travel as raw bit patterns): cold vs. warm runs stay byte-identical,
// the disk tier's contract.
//===----------------------------------------------------------------------===//

/// The codec of stage artifact \p A whose payload is \p Layout. It never
/// encodes a failure artifact — a transient failure (frontend bug under a
/// fuzzer seed, a worker timeout) must not become permanent across
/// processes — and decodes only a payload the layout consumes exactly, so
/// an entry written under another layout recomputes.
template <typename A, typename LayoutFn>
ArtifactCodec layoutCodec(LayoutFn Layout) {
  return {[Layout](const void *V, std::vector<uint8_t> &Out) {
            const A &Art = *static_cast<const A *>(V);
            if (!Art.Ok)
              return false;
            WireWriter W;
            Layout(W, Art);
            Out = std::move(W.Buf);
            return true;
          },
          [Layout](const uint8_t *D, size_t N) -> std::shared_ptr<const void> {
            WireReader R(D, N);
            auto Art = std::make_shared<A>();
            Layout(R, *Art);
            if (!R.ok() || !R.atEnd())
              return nullptr;
            Art->Ok = true;
            return Art;
          }};
}

const ArtifactCodec &baselineRunCodec() {
  static const ArtifactCodec C =
      layoutCodec<EvalPipeline::BaselineRunArtifact>([](auto &X, auto &A) {
        X.u8(A.Run.Ok);
        X.str(A.Run.Error);
        X.str(A.Run.FaultFunction);
        X.str(A.Run.FaultBlock);
        X.i64(A.Run.ExitValue);
        X.str(A.Run.Stdout);
        X.u64(A.Run.Steps);
        X.u64(A.Run.Cost);
      });
  return C;
}

const ArtifactCodec &imageCodec() {
  static const ArtifactCodec C =
      layoutCodec<EvalPipeline::ImageArtifact>([](auto &X, auto &A) {
        binaryImageLayout(X, A.Image);
        imageFeaturesLayout(X, A.Features);
        // Pass telemetry travels with the image: a run served entirely
        // from the disk tier must print the same [passes] totals as the
        // run that populated it.
        X.u64(A.Report.SitesRewritten);
        X.u64(A.Report.StringsEncrypted);
        X.u64(A.Report.BlocksSplit);
        X.u64(A.Report.BlocksInserted);
        X.u64(A.Report.BytesGrown);
      });
  return C;
}

const ArtifactCodec &diffOutcomeCodec() {
  static const ArtifactCodec C =
      layoutCodec<EvalPipeline::DiffArtifact>([](auto &X, auto &A) {
        X.f64(A.Outcome.Precision);
        X.f64(A.Outcome.Similarity);
        diffResultLayout(X, A.Outcome.Raw);
      });
  return C;
}

/// Compiles \p W's source into a fresh Context. False when the frontend
/// fails: Out.M stays null and Out.Error says why.
bool compile(const Workload &W, CompiledWorkload &Out) {
  Out.Ctx = std::make_shared<Context>();
  Out.M = compileMiniC(W.Source, *Out.Ctx, W.Name, Out.Error);
  return Out.M != nullptr;
}

} // namespace

std::shared_ptr<const CompiledWorkload>
EvalPipeline::baseline(const Workload &W) {
  return baseline(W, Cfg.Baseline.Level);
}

std::shared_ptr<const CompiledWorkload>
EvalPipeline::baseline(const Workload &W, OptLevel Level) {
  ArtifactKey K{W.Name, ObfuscationMode::None, 0, ArtifactStage::Baseline,
                static_cast<uint64_t>(Level), fingerprintSource(W)};
  return Store.getOrCompute<CompiledWorkload>(
      K, W.Source.size(), [&]() -> std::shared_ptr<const CompiledWorkload> {
        auto Out = std::make_shared<CompiledWorkload>();
        if (compile(W, *Out))
          optimizeModule(*Out->M, Level);
        return Out;
      });
}

std::shared_ptr<const EvalPipeline::PrecompiledArtifact>
EvalPipeline::precompiledBaseline(const Workload &W, OptLevel Level) {
  ArtifactKey K{W.Name, ObfuscationMode::None, 0,
                ArtifactStage::PrecompiledModule,
                static_cast<uint64_t>(Level), fingerprintSource(W)};
  return Store.getOrCompute<PrecompiledArtifact>(
      K, W.Source.size(),
      [&]() -> std::shared_ptr<const PrecompiledArtifact> {
        auto Out = std::make_shared<PrecompiledArtifact>();
        Out->Base = baseline(W, Level);
        if (!*Out->Base)
          return Out;
        precompileModule(*Out->Base->M, Out->BM);
        Out->Ok = true;
        return Out;
      });
}

std::shared_ptr<const EvalPipeline::BaselineRunArtifact>
EvalPipeline::baselineRun(const Workload &W) {
  return baselineRun(W, Cfg.Baseline.Level);
}

std::shared_ptr<const EvalPipeline::BaselineRunArtifact>
EvalPipeline::baselineRun(const Workload &W, OptLevel Level) {
  // The opt level is part of the key: O0 and O2 runs have different
  // costs. Bits 8.. hold the precompiled engine's byte, which keeps the
  // disk tier's .art names and addresses stable across revisions.
  ArtifactKey K{W.Name, ObfuscationMode::None, 0, ArtifactStage::BaselineRun,
                static_cast<uint64_t>(Level) |
                    (static_cast<uint64_t>(VMEngine::Precompiled) << 8),
                fingerprintSource(W)};
  return Store.getOrCompute<BaselineRunArtifact>(
      K, W.Source.size(),
      [&]() -> std::shared_ptr<const BaselineRunArtifact> {
        auto Out = std::make_shared<BaselineRunArtifact>();
        // Run from the shared bytecode artifact: the decode cost is paid
        // once per workload, not per execution.
        std::shared_ptr<const PrecompiledArtifact> PB =
            precompiledBaseline(W, Level);
        if (!PB->Ok)
          return Out;
        Out->Run = runPrecompiled(PB->BM);
        Out->Ok = Out->Run.Ok && Out->Run.Cost != 0;
        return Out;
      },
      &baselineRunCodec());
}

std::shared_ptr<const EvalPipeline::ImageArtifact>
EvalPipeline::baselineImage(const Workload &W) {
  return baselineImage(W, Cfg.Baseline);
}

std::shared_ptr<const EvalPipeline::ImageArtifact>
EvalPipeline::baselineImage(const Workload &W, const BuildConfig &BC) {
  ArtifactKey K{W.Name, ObfuscationMode::None, 0,
                ArtifactStage::BaselineImage, BC.fingerprint(),
                fingerprintSource(W)};
  return Store.getOrCompute<ImageArtifact>(
      K, W.Source.size(), [&]() -> std::shared_ptr<const ImageArtifact> {
        auto Out = std::make_shared<ImageArtifact>();
        std::shared_ptr<const CompiledWorkload> Base =
            baseline(W, BC.Level);
        if (!*Base)
          return Out;
        Out->Image = lowerToBinary(*Base->M, BC.Codegen);
        Out->Features = extractFeatures(Out->Image);
        Out->Ok = true;
        return Out;
      },
      &imageCodec());
}

std::shared_ptr<const EvalPipeline::FissionArtifact>
EvalPipeline::fissionStage(const Workload &W, const FissionOptions &Opts) {
  ArtifactKey K{W.Name, ObfuscationMode::Fission, 0,
                ArtifactStage::FissionStage, fingerprintFission(Opts),
                fingerprintSource(W)};
  return Store.getOrCompute<FissionArtifact>(
      K, W.Source.size(), [&]() -> std::shared_ptr<const FissionArtifact> {
        auto Out = std::make_shared<FissionArtifact>();
        if (compile(W, *Out))
          Out->Phase = runFissionPhase(*Out->M, Opts);
        return Out;
      });
}

CompiledWorkload EvalPipeline::obfuscate(const Workload &W,
                                         ObfuscationMode Mode,
                                         ObfuscationResult *StatsOut,
                                         uint64_t Seed) {
  KhaosOptions Opts;
  Opts.Seed = Seed;
  return obfuscate(W, Mode, Opts, StatsOut);
}

CompiledWorkload EvalPipeline::obfuscate(const Workload &W,
                                         ObfuscationMode Mode,
                                         const KhaosOptions &Opts,
                                         ObfuscationResult *StatsOut) {
  CompiledWorkload Out;
  ObfuscationResult R;
  if (modeUsesFission(Mode) && Opts.Steps != 0) {
    // Clone the shared fission-stage artifact and run only the fusion
    // suffix. The uncached path takes exactly the same route (the store
    // recomputes the artifact per request), so results cannot depend on
    // whether caching is enabled. Fission is the first step and comes
    // before Opts.ExtraPass, so the stage holds the same module whatever
    // prefix or extra pass the caller asks for; only a zero-step prefix,
    // which must not run fission at all, compiles afresh.
    std::shared_ptr<const FissionArtifact> FA =
        fissionStage(W, Opts.Fission);
    Out.Ctx = FA->Ctx;
    if (!*FA) {
      Out.Error = FA->Error;
      return Out;
    }
    // cloneModule only reads the shared module, so the cells of one
    // workload clone it concurrently.
    Out.M = cloneModule(*FA->M);
    R = finishFissionMode(*Out.M, Mode, Opts, FA->Phase);
  } else {
    if (!compile(W, Out))
      return Out;
    R = obfuscateModule(*Out.M, Mode, Opts);
  }
  if (StatsOut)
    *StatsOut = R;
  std::vector<std::string> Problems = verifyModule(*Out.M);
  if (!Problems.empty()) {
    Out.Error = "verifier: " + Problems.front();
    Out.M.reset();
  }
  return Out;
}

std::shared_ptr<const EvalPipeline::ImageArtifact>
EvalPipeline::obfuscatedImage(const Workload &W, ObfuscationMode Mode,
                              uint64_t Seed) {
  ArtifactKey K{W.Name, Mode, Seed, ArtifactStage::ObfuscatedImage, 0,
                fingerprintSource(W)};
  return Store.getOrCompute<ImageArtifact>(
      K, W.Source.size(), [&]() -> std::shared_ptr<const ImageArtifact> {
        auto Out = std::make_shared<ImageArtifact>();
        ObfuscationResult Stats;
        CompiledWorkload Obf = obfuscate(W, Mode, &Stats, Seed);
        if (!Obf)
          return Out;
        Out->Image = lowerToBinary(*Obf.M);
        Out->Features = extractFeatures(Out->Image);
        Out->Report = Stats.Report;
        Out->Ok = true;
        return Out;
      },
      &imageCodec());
}

std::shared_ptr<const EvalPipeline::DiffArtifact>
EvalPipeline::diffOutcome(const Workload &W, ObfuscationMode Mode,
                          uint64_t Seed, const std::string &ToolName,
                          const std::shared_ptr<const ImageArtifact> &A,
                          const std::shared_ptr<const ImageArtifact> &B) {
  return diffOutcome(W, Cfg.Baseline, Mode, Seed, ToolName, A, B);
}

std::shared_ptr<const EvalPipeline::DiffArtifact>
EvalPipeline::diffOutcome(const Workload &W, const BuildConfig &BC,
                          ObfuscationMode Mode, uint64_t Seed,
                          const std::string &ToolName,
                          const std::shared_ptr<const ImageArtifact> &A,
                          const std::shared_ptr<const ImageArtifact> &B) {
  ArtifactKey K{W.Name, Mode, Seed, ArtifactStage::DiffOutcome,
                fingerprintToolAndConfig(ToolName, BC),
                fingerprintSource(W)};
  return Store.getOrCompute<DiffArtifact>(
      K, W.Source.size(), [&]() -> std::shared_ptr<const DiffArtifact> {
        auto Out = std::make_shared<DiffArtifact>();
        if (!A->Ok || !B->Ok) {
          Out->Error = "image pair could not be built";
          return Out;
        }
        // Every compute instantiates its own tool, so concurrent tasks
        // stay independent even if a future backend grows mutable state.
        std::unique_ptr<DiffTool> Tool = createDiffTool(ToolName);
        try {
          Out->Outcome = runDiffTool(*Tool, A->Image, A->Features,
                                     B->Image, B->Features);
          Out->Ok = true;
        } catch (const DiffToolError &E) {
          // A hung/crashed worker is an artifact-shaped failure: cached
          // like a success, reported per task by the scheduler, and never
          // allowed to take down the run.
          Out->Error = E.what();
        }
        return Out;
      },
      &diffOutcomeCodec());
}

DiffImages EvalPipeline::diffImages(const Workload &W, ObfuscationMode Mode,
                                    uint64_t Seed) {
  DiffImages Out;
  std::shared_ptr<const ImageArtifact> A = baselineImage(W);
  std::shared_ptr<const ImageArtifact> B = obfuscatedImage(W, Mode, Seed);
  if (!A->Ok || !B->Ok)
    return Out;
  Out.A = A->Image;
  Out.FA = A->Features;
  Out.B = B->Image;
  Out.FB = B->Features;
  Out.Ok = true;
  return Out;
}

bool EvalPipeline::overheadPercent(const Workload &W, ObfuscationMode Mode,
                                   double &OverheadOut, uint64_t Seed) {
  std::shared_ptr<const BaselineRunArtifact> Base = baselineRun(W);
  if (!Base->Ok)
    return false;

  CompiledWorkload Obf = obfuscate(W, Mode, nullptr, Seed);
  if (!Obf)
    return false;
  ExecResult ObfRun = runModule(*Obf.M);
  if (!ObfRun.Ok)
    return false;
  // Behavioural equality is part of the experiment's validity.
  if (ObfRun.Stdout != Base->Run.Stdout ||
      ObfRun.ExitValue != Base->Run.ExitValue)
    return false;

  OverheadOut = (static_cast<double>(ObfRun.Cost) -
                 static_cast<double>(Base->Run.Cost)) /
                static_cast<double>(Base->Run.Cost) * 100.0;
  return true;
}

EvalPipeline::DiffTaskResult
EvalPipeline::diffTask(const Workload &W, const BuildConfig &BC,
                       ObfuscationMode Mode, uint64_t Seed,
                       const std::string &ToolName) {
  DiffTaskResult Out;
  std::shared_ptr<const ImageArtifact> A = baselineImage(W, BC);
  std::shared_ptr<const ImageArtifact> B = obfuscatedImage(W, Mode, Seed);
  Out.ImagesOk = A->Ok && B->Ok;
  if (!Out.ImagesOk)
    return Out;
  Out.Report = B->Report;
  if (ToolName.empty())
    return Out;
  std::shared_ptr<const DiffArtifact> D =
      diffOutcome(W, BC, Mode, Seed, ToolName, A, B);
  Out.ToolOk = D->Ok;
  if (!D->Ok) {
    Out.ToolError = D->Error;
    return Out;
  }
  Out.Precision = D->Outcome.Precision;
  Out.Similarity = D->Outcome.Similarity;
  Out.VulnRanks.reserve(W.VulnFunctions.size());
  for (const std::string &V : W.VulnFunctions)
    Out.VulnRanks.push_back(
        trueMatchRank(A->Image, B->Image, D->Outcome.Raw, V));
  return Out;
}

DiffOutcome EvalPipeline::runDiffTool(const DiffTool &Tool,
                                      const DiffImages &Imgs) const {
  return runDiffTool(Tool, Imgs.A, Imgs.FA, Imgs.B, Imgs.FB);
}

DiffOutcome EvalPipeline::runDiffTool(const DiffTool &Tool,
                                      const BinaryImage &A,
                                      const ImageFeatures &FA,
                                      const BinaryImage &B,
                                      const ImageFeatures &FB) const {
  DiffOutcome Out;
  Out.Raw = Tool.diff(A, FA, B, FB);
  Out.Precision = precisionAt1(A, B, Out.Raw);
  Out.Similarity = Out.Raw.WholeBinarySimilarity;
  return Out;
}
