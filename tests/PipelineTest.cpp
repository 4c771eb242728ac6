//===- tests/PipelineTest.cpp - codegen/diffing/workloads/harness ------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "analysis/BlockFrequency.h"
#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "diffing/Embedding.h"
#include "diffing/Metrics.h"
#include "frontend/IRGen.h"
#include "harness/BinTuner.h"
#include "harness/Evaluator.h"
#include "harness/TableRenderer.h"
#include "ir/IRBuilder.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "support/Statistics.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <thread>

using namespace khaos;

namespace {

//===----------------------------------------------------------------------===//
// Support
//===----------------------------------------------------------------------===//

TEST(Support, RNGIsDeterministic) {
  RNG A = RNG::fromName("stream", 7);
  RNG B = RNG::fromName("stream", 7);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Support, RNGStreamsDiffer) {
  RNG A = RNG::fromName("stream-a");
  RNG B = RNG::fromName("stream-b");
  EXPECT_NE(A.next(), B.next());
}

TEST(Support, RNGBoundsRespected) {
  RNG R(123);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(17), 17u);
    int64_t V = R.nextRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(Support, GeomeanOverhead) {
  EXPECT_NEAR(geomeanOverheadPercent({10.0, 10.0}), 10.0, 1e-9);
  EXPECT_NEAR(geomeanOverheadPercent({}), 0.0, 1e-9);
  // A speedup and a slowdown cancel.
  EXPECT_NEAR(geomeanOverheadPercent({-50.0, 100.0}), 0.0, 1e-9);
}

TEST(Support, CosineBasics) {
  EXPECT_NEAR(cosineSimilarity({1, 0}, {1, 0}), 1.0, 1e-12);
  EXPECT_NEAR(cosineSimilarity({1, 0}, {0, 1}), 0.0, 1e-12);
  EXPECT_NEAR(cosineSimilarity({0, 0}, {1, 1}), 0.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Analyses
//===----------------------------------------------------------------------===//

std::unique_ptr<Module> compileOrDie(Context &Ctx, const char *Src) {
  std::string Error;
  auto M = compileMiniC(Src, Ctx, "t", Error);
  EXPECT_TRUE(M) << Error;
  return M;
}

const char *LoopProgram = R"(
int work(int n) {
  int s = 0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < 4; j++)
      s += i * j;
  if (s > 100) s = 100;
  return s;
}
int main() { return work(9); }
)";

TEST(Analysis, DominatorTreeBasics) {
  Context Ctx;
  auto M = compileOrDie(Ctx, LoopProgram);
  Function *F = M->getFunction("work");
  ASSERT_TRUE(F);
  DominatorTree DT(*F);
  BasicBlock *Entry = F->getEntryBlock();
  EXPECT_EQ(DT.getIDom(Entry), nullptr);
  for (const auto &BB : F->blocks()) {
    EXPECT_TRUE(DT.dominates(Entry, BB.get()));
    EXPECT_TRUE(DT.dominates(BB.get(), BB.get()));
  }
  // Subtree of the entry covers all reachable blocks.
  EXPECT_EQ(DT.getSubtree(Entry).size(), F->size());
}

/// Reference postorder: the plain recursive DFS (successor order, first
/// visit wins) that DominatorTree's RPO must reproduce exactly.
void referencePostorder(BasicBlock *BB, std::set<BasicBlock *> &Seen,
                        std::vector<BasicBlock *> &Out) {
  if (!Seen.insert(BB).second)
    return;
  for (BasicBlock *S : BB->successors())
    referencePostorder(S, Seen, Out);
  Out.push_back(BB);
}

TEST(Analysis, DominatorTreeMatchesReferenceOnRandomCFGs) {
  // Random CFGs with unreachable blocks, self-loops and repeated
  // successors, checked against the textbook definitions: RPO from the
  // recursive DFS, and dominance from set dataflow over reachable blocks.
  for (uint64_t Seed = 1; Seed != 61; ++Seed) {
    RNG Rng(Seed);
    Context Ctx;
    Module M(Ctx, "cfg");
    Function *F =
        M.createFunction("f", Ctx.getFunctionType(Ctx.getInt32Type(),
                                                  {Ctx.getInt1Type()}));
    const unsigned N = 2 + static_cast<unsigned>(Rng.nextBelow(30));
    std::vector<BasicBlock *> BBs;
    for (unsigned I = 0; I != N; ++I)
      BBs.push_back(F->addBlock(formatStr("b%u", I)));
    IRBuilder B(M);
    for (BasicBlock *BB : BBs) {
      B.setInsertPoint(BB);
      switch (Rng.nextBelow(4)) {
      case 0:
        B.createRet(M.getInt32(0));
        break;
      case 1:
        B.createBr(BBs[Rng.nextBelow(N)]);
        break;
      default:
        B.createCondBr(F->getArg(0), BBs[Rng.nextBelow(N)],
                       BBs[Rng.nextBelow(N)]);
        break;
      }
    }

    std::set<BasicBlock *> Seen;
    std::vector<BasicBlock *> Post;
    referencePostorder(BBs[0], Seen, Post);
    DominatorTree DT(*F);
    ASSERT_EQ(DT.getRPO(), std::vector<BasicBlock *>(Post.rbegin(),
                                                     Post.rend()))
        << "seed " << Seed;

    // Dom(entry) = {entry}; Dom(b) = {b} + intersection of Dom(p) over
    // reachable predecessors p.
    std::map<BasicBlock *, std::set<BasicBlock *>> Dom;
    for (BasicBlock *BB : Post)
      Dom[BB] = BB == BBs[0] ? std::set<BasicBlock *>{BB} : Seen;
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (BasicBlock *BB : DT.getRPO()) {
        if (BB == BBs[0])
          continue;
        std::set<BasicBlock *> New = Seen;
        for (BasicBlock *P : BB->predecessors()) {
          if (!Seen.count(P))
            continue;
          std::set<BasicBlock *> Keep;
          for (BasicBlock *D : Dom[P])
            if (New.count(D))
              Keep.insert(D);
          New = std::move(Keep);
        }
        New.insert(BB);
        if (New != Dom[BB]) {
          Dom[BB] = std::move(New);
          Changed = true;
        }
      }
    }
    for (BasicBlock *A : BBs)
      for (BasicBlock *Bb : BBs) {
        bool Expected = Seen.count(A) && Seen.count(Bb) && Dom[Bb].count(A);
        EXPECT_EQ(DT.dominates(A, Bb), Expected)
            << "seed " << Seed << ": " << A->getName() << " dom "
            << Bb->getName();
      }
    for (BasicBlock *BB : BBs) {
      EXPECT_EQ(DT.isReachable(BB), Seen.count(BB) != 0);
      if (BasicBlock *D = DT.getIDom(BB)) {
        // The immediate dominator is the strict dominator nearest to BB.
        EXPECT_TRUE(Dom[BB].count(D) && D != BB);
        EXPECT_EQ(Dom[D].size() + 1, Dom[BB].size()) << "seed " << Seed;
      }
    }
    size_t Covered = 0;
    for (BasicBlock *BB : DT.getRPO())
      Covered += DT.getChildren(BB).size();
    EXPECT_EQ(Covered + 1, DT.getRPO().size());

    // The index-level core (what the diffing backends run on machine
    // CFGs) on the same successor lists as block indices, plus one
    // out-of-range successor it must ignore: same RPO and immediate
    // dominators as the tree, and depth |Dom(b)| - 1.
    std::map<BasicBlock *, uint32_t> Index;
    for (unsigned I = 0; I != N; ++I)
      Index[BBs[I]] = I;
    std::vector<std::vector<uint32_t>> Succs(N);
    for (unsigned I = 0; I != N; ++I)
      for (BasicBlock *S : BBs[I]->successors())
        Succs[I].push_back(Index[S]);
    std::vector<uint32_t> &Bad = Succs[Rng.nextBelow(N)];
    Bad.insert(Bad.begin() + Rng.nextBelow(Bad.size() + 1),
               N + static_cast<uint32_t>(Rng.nextBelow(4)));
    BlockDominance D = computeBlockDominance(Succs);
    ASSERT_EQ(D.RPO.size(), DT.getRPO().size()) << "seed " << Seed;
    ASSERT_EQ(D.IDom.size(), D.RPO.size()) << "seed " << Seed;
    EXPECT_EQ(D.IDom[0], 0u) << "seed " << Seed;
    for (size_t I = 0; I != D.RPO.size(); ++I) {
      EXPECT_EQ(BBs[D.RPO[I]], DT.getRPO()[I]) << "seed " << Seed;
      if (I != 0) {
        EXPECT_EQ(BBs[D.RPO[D.IDom[I]]], DT.getIDom(BBs[D.RPO[I]]))
            << "seed " << Seed;
      }
    }
    ASSERT_EQ(D.Depth.size(), N);
    for (unsigned I = 0; I != N; ++I) {
      int32_t Want = Seen.count(BBs[I])
                         ? static_cast<int32_t>(Dom[BBs[I]].size()) - 1
                         : -1;
      EXPECT_EQ(D.Depth[I], Want) << "seed " << Seed << " b" << I;
    }
  }
}

TEST(Analysis, LoopInfoFindsNest) {
  Context Ctx;
  auto M = compileOrDie(Ctx, LoopProgram);
  Function *F = M->getFunction("work");
  DominatorTree DT(*F);
  LoopInfo LI(DT);
  unsigned MaxDepth = 0;
  for (const auto &BB : F->blocks())
    MaxDepth = std::max(MaxDepth, LI.getLoopDepth(BB.get()));
  EXPECT_EQ(MaxDepth, 2u); // i-loop containing the j-loop.
}

TEST(Analysis, BlockFrequencyScalesWithLoopDepth) {
  Context Ctx;
  auto M = compileOrDie(Ctx, LoopProgram);
  Function *F = M->getFunction("work");
  DominatorTree DT(*F);
  LoopInfo LI(DT);
  BlockFrequency BF(DT, LI);
  double EntryFreq = BF.getFrequency(F->getEntryBlock());
  double MaxFreq = 0;
  for (const auto &BB : F->blocks())
    MaxFreq = std::max(MaxFreq, BF.getFrequency(BB.get()));
  EXPECT_GT(MaxFreq, EntryFreq * 10); // Inner loop is much hotter.
}

//===----------------------------------------------------------------------===//
// Codegen
//===----------------------------------------------------------------------===//

TEST(Codegen, LowersEveryDefinedFunction) {
  Context Ctx;
  auto M = compileOrDie(Ctx, LoopProgram);
  BinaryImage Img = lowerToBinary(*M);
  EXPECT_TRUE(Img.findFunction("work"));
  EXPECT_TRUE(Img.findFunction("main"));
  EXPECT_FALSE(Img.findFunction("printf")); // Declarations are external.
}

TEST(Codegen, FunctionsAre16ByteAligned) {
  Context Ctx;
  auto M = compileOrDie(Ctx, LoopProgram);
  BinaryImage Img = lowerToBinary(*M);
  for (const MFunction &F : Img.Functions)
    EXPECT_EQ(F.Address % 16, 0u) << F.Name;
}

TEST(Codegen, SpillStyleInflatesInstructionCount) {
  Context Ctx;
  auto M = compileOrDie(Ctx, LoopProgram);
  CodegenOptions O0Style;
  O0Style.SpillEverything = true;
  size_t O0Insts = 0, O2Insts = 0;
  for (const MFunction &F : lowerToBinary(*M, O0Style).Functions)
    O0Insts += F.instructionCount();
  for (const MFunction &F : lowerToBinary(*M).Functions)
    O2Insts += F.instructionCount();
  EXPECT_GT(O0Insts, O2Insts);
}

TEST(Codegen, TaggedGlobalInitializerBecomesRelocationAddend) {
  const char *Src = R"(
int cb(int x) { return x + 1; }
int (*handler)(int) = cb;
int main() { return handler(41); }
)";
  Context Ctx;
  auto M = compileOrDie(Ctx, Src);
  FusionStats Stats;
  // Fuse cb with main's helper... fuse with another function.
  // Just check the relocation table carries the tag after fusion.
  runFusion(*M, Stats);
  BinaryImage Img = lowerToBinary(*M);
  bool SawTaggedReloc = false;
  for (const DataRelocation &R : Img.DataRelocs) {
    if (R.Addend != 0)
      SawTaggedReloc = true;
  }
  if (Stats.Pairs > 0) {
    EXPECT_TRUE(SawTaggedReloc);
  }
}

TEST(Codegen, DisassemblyMentionsCallTargets) {
  Context Ctx;
  auto M = compileOrDie(Ctx, LoopProgram);
  std::string Asm = lowerToBinary(*M).disassemble();
  EXPECT_NE(Asm.find("<work>"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Diffing
//===----------------------------------------------------------------------===//

TEST(Diffing, IdentityDiffIsNearPerfect) {
  ProgramSpec S;
  S.Name = "identity";
  S.NumFunctions = 24;
  S.Seed = 5;
  Workload W{S.Name, generateMiniCProgram(S), {}, {}};
  EvalPipeline Pipe;
  std::shared_ptr<const CompiledWorkload> C = Pipe.baseline(W);
  ASSERT_TRUE(*C);
  BinaryImage A = lowerToBinary(*C->M);
  ImageFeatures FA = extractFeatures(A);
  for (const auto &Tool : createAllDiffTools()) {
    DiffResult R = Tool->diff(A, FA, A, FA);
    EXPECT_GT(precisionAt1(A, A, R), 0.78) << Tool->getName();
    EXPECT_GT(R.WholeBinarySimilarity, 0.80) << Tool->getName();
  }
}

TEST(Diffing, TokenVectorsBitIdenticalAcrossEightThreads) {
  // tokenVector/accumulateToken read per-thread memos. Eight threads that
  // fill their memos in different orders over one shared token set must
  // see exactly the serial vectors and sums, bit for bit.
  std::vector<uint64_t> Tokens;
  for (uint64_t I = 0; I != 512; ++I) {
    Tokens.push_back(I);
    Tokens.push_back(bigramToken(I, I * 7 + 3));
    Tokens.push_back(0x1000000ull + I * 977);
  }
  auto Bits = [](const std::vector<double> &V) {
    std::vector<uint64_t> Out(V.size());
    std::memcpy(Out.data(), V.data(), V.size() * sizeof(double));
    return Out;
  };
  auto Sum = [&]() {
    std::vector<double> Acc;
    for (size_t I = 0; I != Tokens.size(); ++I)
      accumulateToken(Acc, Tokens[I], 1.0 + static_cast<double>(I % 5));
    return Bits(Acc);
  };

  // The serial reference runs on a fresh thread, so its memo starts cold
  // like the workers'.
  std::vector<std::vector<uint64_t>> Serial;
  std::vector<uint64_t> SerialSum;
  std::thread([&] {
    for (uint64_t T : Tokens)
      Serial.push_back(Bits(tokenVector(T)));
    SerialSum = Sum();
  }).join();

  constexpr unsigned NumThreads = 8;
  std::vector<std::vector<std::vector<uint64_t>>> Seen(NumThreads);
  std::vector<std::vector<uint64_t>> Sums(NumThreads);
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Pool;
  for (unsigned W = 0; W != NumThreads; ++W)
    Pool.emplace_back([&, W] {
      Ready.fetch_add(1);
      while (Ready.load() != NumThreads) {
      }
      // Thread W starts its walk at a different offset, so the memos are
      // filled in different orders while the other threads run.
      const size_t N = Tokens.size(), Start = W * N / NumThreads;
      Seen[W].resize(N);
      for (size_t K = 0; K != N; ++K) {
        size_t I = (Start + K) % N;
        Seen[W][I] = Bits(tokenVector(Tokens[I]));
      }
      Sums[W] = Sum();
    });
  for (std::thread &T : Pool)
    T.join();
  for (unsigned W = 0; W != NumThreads; ++W) {
    EXPECT_EQ(Seen[W], Serial) << "thread " << W;
    EXPECT_EQ(Sums[W], SerialSum) << "thread " << W;
  }
}

TEST(Diffing, ToolTraitsMatchPaperTable1) {
  auto Tools = createAllDiffTools();
  ASSERT_GE(Tools.size(), 5u);
  EXPECT_TRUE(Tools[0]->getTraits().UsesSymbols);  // BinDiff
  EXPECT_FALSE(Tools[2]->getTraits().UsesSymbols); // Asm2Vec
  EXPECT_EQ(Tools[4]->getTraits().Granularity, ToolGranularity::BasicBlock);
  EXPECT_STREQ(toolGranularityName(Tools[4]->getTraits().Granularity),
               "basic block");
  EXPECT_EQ(Tools[0]->getTraits().Granularity, ToolGranularity::Function);
  EXPECT_TRUE(Tools[4]->getTraits().MemoryConsuming);
}

TEST(Diffing, PairingJudgeUsesProvenance) {
  MFunction F;
  F.Name = "khaos_fused.0";
  F.Origins = {"alpha", "beta"};
  EXPECT_TRUE(pairingMatches(F, "alpha"));
  EXPECT_TRUE(pairingMatches(F, "beta"));
  EXPECT_FALSE(pairingMatches(F, "gamma"));
}

TEST(Diffing, KhaosDegradesAccuracyMoreThanSub) {
  ProgramSpec S;
  S.Name = "degrade";
  S.NumFunctions = 40;
  S.Seed = 11;
  Workload W{S.Name, generateMiniCProgram(S), {}, {}};
  EvalPipeline Pipe;
  auto Tool = createAsm2VecTool();
  DiffImages SubImgs = Pipe.diffImages(W, ObfuscationMode::Sub);
  DiffImages KhaosImgs = Pipe.diffImages(W, ObfuscationMode::FuFiAll);
  ASSERT_TRUE(SubImgs.Ok && KhaosImgs.Ok);
  double SubP = Pipe.runDiffTool(*Tool, SubImgs).Precision;
  double KhaosP = Pipe.runDiffTool(*Tool, KhaosImgs).Precision;
  EXPECT_GT(SubP, KhaosP + 0.2)
      << "Sub=" << SubP << " FuFi.all=" << KhaosP;
}

TEST(Diffing, ShapeAffinityOrdering) {
  FunctionFeatures A, B, C;
  A.NumBlocks = 10;
  A.NumEdges = 14;
  A.NumCalls = 3;
  A.NumInsts = 120;
  B = A; // Identical shape.
  C.NumBlocks = 4;
  C.NumEdges = 5;
  C.NumCalls = 6;
  C.NumInsts = 60;
  EXPECT_NEAR(shapeAffinity(A, B), 1.0, 1e-12);
  EXPECT_LT(shapeAffinity(A, C), 0.6);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

TEST(Workloads, SuitesHaveExpectedSizes) {
  EXPECT_EQ(specCpu2006Suite().size(), 19u);
  EXPECT_EQ(specCpu2017Suite().size(), 28u);
  EXPECT_EQ(coreUtilsSuite().size(), 108u);
  EXPECT_EQ(vulnerableSuite().size(), 5u);
}

TEST(Workloads, GenerationIsDeterministic) {
  ProgramSpec S;
  S.Name = "det";
  S.Seed = 42;
  EXPECT_EQ(generateMiniCProgram(S), generateMiniCProgram(S));
}

TEST(Workloads, VulnSuiteNamesMatchPaperTable3) {
  std::set<std::string> AllVulns;
  size_t CVEs = 0;
  for (const Workload &W : vulnerableSuite()) {
    for (const std::string &V : W.VulnFunctions)
      AllVulns.insert(V);
    CVEs += W.VulnCVEs.size();
  }
  EXPECT_TRUE(AllVulns.count("opfunc_spread_arguments"));
  EXPECT_TRUE(AllVulns.count("compute_stack_size_rec"));
  EXPECT_TRUE(AllVulns.count("EC_GROUP_set_generator"));
  EXPECT_TRUE(AllVulns.count("ConnectionExists"));
  EXPECT_EQ(AllVulns.size(), 14u); // Table 3: 14 functions.
}

TEST(Workloads, VulnFunctionsSurviveCompilation) {
  EvalPipeline Pipe;
  for (const Workload &W : vulnerableSuite()) {
    std::shared_ptr<const CompiledWorkload> C = Pipe.baseline(W);
    ASSERT_TRUE(*C) << W.Name << ": " << C->Error;
    BinaryImage Img = lowerToBinary(*C->M);
    for (const std::string &V : W.VulnFunctions)
      EXPECT_TRUE(Img.findFunction(V)) << W.Name << "/" << V;
  }
}

class SuiteRunnability : public ::testing::TestWithParam<int> {};

TEST_P(SuiteRunnability, CompilesVerifiesAndRuns) {
  std::vector<Workload> Suite = specCpu2006Suite();
  const Workload &W = Suite[GetParam()];
  EvalPipeline Pipe;
  std::shared_ptr<const CompiledWorkload> C = Pipe.baseline(W);
  ASSERT_TRUE(*C) << W.Name << ": " << C->Error;
  ExecResult R = runModule(*C->M);
  EXPECT_TRUE(R.Ok) << W.Name << ": " << R.Error;
  EXPECT_FALSE(R.Stdout.empty()) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(Spec2006, SuiteRunnability,
                         ::testing::Range(0, 19));

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

TEST(Harness, OverheadMeasurementSane) {
  Workload W = specCpu2006Suite()[3]; // 429.mcf
  double Ov = 0.0;
  EvalPipeline Pipe;
  ASSERT_TRUE(Pipe.overheadPercent(W, ObfuscationMode::Fission, Ov));
  EXPECT_GT(Ov, -50.0);
  EXPECT_LT(Ov, 200.0);
}

TEST(Harness, BinTunerFindsSomething) {
  Workload W = specCpu2006Suite()[3];
  EvalPipeline Pipe;
  BinTuner::Options Opts;
  Opts.Budget = 4;
  BinTuner Tuner(Pipe, Opts);
  BinTunerResult R = Tuner.run(W, /*Seed=*/0x717);
  ASSERT_TRUE(R.Ok);
  for (int L = 0; L != 4; ++L) {
    EXPECT_GE(R.SimilarityVsLevel[L], 0.0);
    EXPECT_LE(R.SimilarityVsLevel[L], 1.0);
  }
  // The candidate builds are pipeline artifacts: re-running the search
  // with the same seed performs zero baseline recompiles.
  auto Before = Pipe.store().stats();
  BinTunerResult R2 = Tuner.run(W, /*Seed=*/0x717);
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(R2.Best, R.Best);
  auto Delta = ArtifactStore::Snapshot::delta(Pipe.store().stats(), Before);
  EXPECT_EQ(Delta.stage(ArtifactStage::Baseline).Misses, 0u);
  EXPECT_EQ(Delta.stage(ArtifactStage::BaselineImage).Misses, 0u);
}

TEST(Harness, TableRendererAlignsColumns) {
  TableRenderer T({"a", "long-header"});
  T.addRow({"x", "1"});
  T.addRow({"yyyy", "2"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("| a    | long-header |"), std::string::npos);
}

TEST(HarnessDeathTest, TableRendererRejectsRowWidthMismatch) {
  // A row must have one cell per header: a longer row used to lose its
  // tail columns and a shorter one printed blanks, both silently.
  TableRenderer T({"a", "long-header"});
  EXPECT_DEATH(T.addRow({"x"}), "row of 1 cells under 2 headers");
  EXPECT_DEATH(T.addRow({"x", "1", "extra"}),
               "row of 3 cells under 2 headers");
}

TEST(Harness, EscapeRatioBehavesAtExtremes) {
  Workload W = vulnerableSuite()[0]; // jerryscript
  EvalPipeline Pipe;
  DiffImages None = Pipe.diffImages(W, ObfuscationMode::None);
  ASSERT_TRUE(None.Ok);
  auto Tool = createAsm2VecTool();
  DiffOutcome O = Pipe.runDiffTool(*Tool, None);
  // Un-obfuscated: the vulnerable function must be near the top.
  double E50 = escapeRatioAtK(None.A, None.B, O.Raw, W.VulnFunctions, 50);
  EXPECT_EQ(E50, 0.0);
}

} // namespace
