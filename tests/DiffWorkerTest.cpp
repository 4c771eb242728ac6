//===- tests/DiffWorkerTest.cpp - Out-of-process diffing tests ---------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The out-of-process backend subsystem, end to end: the wire protocol
/// (golden frame, zero-function and >64 KiB payload edges, malformed
/// input), the worker pool's failure discipline (a hanging worker hits
/// its timeout and fails only its own task; a crashed worker is respawned
/// and the retried request succeeds), result caching (a warm matrix
/// re-run performs zero worker round trips) and the headline equivalence:
/// subprocess-backed runs of a tool are bit-identical to in-process runs
/// across thread counts and cache settings.
///
//===----------------------------------------------------------------------===//

#include "diffing/DiffWorkerProtocol.h"
#include "diffing/SubprocessDiffTool.h"
#include "harness/EvalScheduler.h"
#include "workloads/Suites.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

using namespace khaos;

namespace {

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

/// The canonical minimal request (empty images, tool "T") must encode to
/// exactly these bytes: header (magic "KDW1", version 1, type request),
/// the tool string, then two empty images and two empty feature sets.
/// Pinning the bytes keeps the wire format from drifting silently — a
/// drift would desync harnesses and workers built from different
/// revisions.
TEST(DiffWireProtocol, GoldenMinimalRequestFrame) {
  DiffWireRequest Req;
  Req.Tool = "T";
  std::vector<uint8_t> Payload = encodeDiffRequest(Req);

  std::vector<uint8_t> Golden = {
      0x31, 0x57, 0x44, 0x4B, // magic "KDW1" (little-endian u32)
      0x01, 0x00,             // version 1
      0x01,                   // type = request
      0x01, 0x00, 0x00, 0x00, // tool name length 1
      0x54,                   // 'T'
  };
  // Image A: name "" + 0 functions + 0 symbols + 0 relocs + 0 index
  // entries = five zero u32s; features A: 0 functions = one zero u32.
  // Then the same for the B side.
  for (int I = 0; I != 2; ++I) {
    for (int J = 0; J != 5 * 4; ++J)
      Golden.push_back(0x00);
    for (int J = 0; J != 4; ++J)
      Golden.push_back(0x00);
  }
  EXPECT_EQ(Payload, Golden);

  DiffWireRequest Back;
  std::string Err;
  ASSERT_TRUE(decodeDiffRequest(Payload, Back, Err)) << Err;
  EXPECT_EQ(Back.Tool, "T");
  EXPECT_TRUE(Back.A.Functions.empty());
  EXPECT_TRUE(Back.FB.Funcs.empty());
  // Decode → re-encode is the identity (deep equality via bytes).
  EXPECT_EQ(encodeDiffRequest(Back), Payload);
}

/// Builds a synthetic image big enough that its request frame crosses the
/// 64 KiB mark — pipes deliver large frames in several chunks, and the
/// transport must reassemble them.
BinaryImage makeLargeImage() {
  BinaryImage Img;
  Img.Name = "large";
  for (unsigned FI = 0; FI != 48; ++FI) {
    MFunction F;
    // Append-style concat sidesteps a GCC 12 -Wrestrict false positive
    // on operator+(const char *, std::string&&).
    F.Name = "f";
    F.Name += std::to_string(FI);
    F.Address = 0x1000 + 16 * FI;
    F.Origins = {F.Name};
    for (unsigned BI = 0; BI != 2; ++BI) {
      MBlock B;
      B.Name = "bb";
      B.Name += std::to_string(BI);
      for (unsigned II = 0; II != 60; ++II)
        B.Insts.emplace_back(MOp::Add, II % 2 == 0, II % 3 == 0,
                             static_cast<int32_t>(II % 5) - 1,
                             static_cast<int64_t>(II) * 7 - 3);
      B.Succs.push_back((BI + 1) % 2);
      F.Blocks.push_back(std::move(B));
    }
    Img.FunctionIndex[F.Name] = FI;
    Img.Functions.push_back(std::move(F));
    Img.Symbols.push_back("sym" + std::to_string(FI));
  }
  Img.DataRelocs.push_back({"tab", 8, 3, 0x7001});
  return Img;
}

TEST(DiffWireProtocol, ZeroFunctionAndLargePayloadEdges) {
  // Zero-function request (an empty module is a legal diff input).
  DiffWireRequest Empty;
  Empty.Tool = "SAFE";
  std::vector<uint8_t> SmallPayload = encodeDiffRequest(Empty);
  DiffWireRequest EmptyBack;
  std::string Err;
  ASSERT_TRUE(decodeDiffRequest(SmallPayload, EmptyBack, Err)) << Err;
  EXPECT_TRUE(EmptyBack.A.Functions.empty());

  // >64 KiB frame round trip, through memory and through a real pipe.
  DiffWireRequest Big;
  Big.Tool = "SAFE";
  Big.A = makeLargeImage();
  Big.B = Big.A;
  std::vector<uint8_t> Payload = encodeDiffRequest(Big);
  ASSERT_GT(Payload.size(), 65536u);
  DiffWireRequest Back;
  ASSERT_TRUE(decodeDiffRequest(Payload, Back, Err)) << Err;
  EXPECT_EQ(encodeDiffRequest(Back), Payload);

  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  // A pipe holds ~64 KiB: writer and reader must run concurrently.
  std::thread Writer([&] {
    std::string WErr;
    EXPECT_EQ(writeDiffFrame(Fds[1], Payload, 5000, WErr), FrameIOResult::Ok)
        << WErr;
    ::close(Fds[1]);
  });
  std::vector<uint8_t> Received;
  EXPECT_EQ(readDiffFrame(Fds[0], Received, 5000, Err), FrameIOResult::Ok)
      << Err;
  Writer.join();
  EXPECT_EQ(Received, Payload);
  // Clean EOF after the last frame.
  EXPECT_EQ(readDiffFrame(Fds[0], Received, 1000, Err), FrameIOResult::Eof);
  EXPECT_TRUE(Err.empty()) << Err;
  ::close(Fds[0]);
}

TEST(DiffWireProtocol, ResponseRoundTripAndMalformedFrames) {
  DiffWireResponse Ok;
  Ok.Ok = true;
  Ok.Result.Rankings = {{2, 0, 1}, {}, {1}};
  Ok.Result.WholeBinarySimilarity = 0.8125;
  std::vector<uint8_t> Payload = encodeDiffResponse(Ok);
  DiffWireResponse Back;
  std::string Err;
  ASSERT_TRUE(decodeDiffResponse(Payload, Back, Err)) << Err;
  EXPECT_TRUE(Back.Ok);
  EXPECT_EQ(Back.Result.Rankings, Ok.Result.Rankings);
  EXPECT_EQ(Back.Result.WholeBinarySimilarity, 0.8125);

  DiffWireResponse Error;
  Error.Error = "boom";
  std::vector<uint8_t> ErrPayload = encodeDiffResponse(Error);
  ASSERT_TRUE(decodeDiffResponse(ErrPayload, Back, Err)) << Err;
  EXPECT_FALSE(Back.Ok);
  EXPECT_EQ(Back.Error, "boom");

  // Bad magic.
  std::vector<uint8_t> Bad = Payload;
  Bad[0] ^= 0xFF;
  EXPECT_FALSE(decodeDiffResponse(Bad, Back, Err));
  // Truncated body.
  Bad = Payload;
  Bad.resize(Bad.size() - 3);
  EXPECT_FALSE(decodeDiffResponse(Bad, Back, Err));
  // Trailing garbage.
  Bad = Payload;
  Bad.push_back(0x00);
  EXPECT_FALSE(decodeDiffResponse(Bad, Back, Err));
  // A request is not a response.
  EXPECT_FALSE(
      decodeDiffResponse(encodeDiffRequest(DiffWireRequest{}), Back, Err));
  // An empty read with nothing buffered times out, not hangs.
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  std::vector<uint8_t> None;
  EXPECT_EQ(readDiffFrame(Fds[0], None, 50, Err), FrameIOResult::Timeout);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

/// "<size>:<FNV-1a of the bytes>" — a frame's identity in the pin tables.
std::string frameDigest(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%zu:%016llx", Bytes.size(),
                static_cast<unsigned long long>(H));
  return Buf;
}

/// Every field of every record a KDW1 frame carries, pinned: the golden
/// frame above covers only the header and empty images, so a field
/// reordered inside MFunction, MBlock, MInst, FunctionFeatures or the
/// DiffResult would pass it unnoticed. Real CoreUtils image pairs under
/// three modes (None, the inter-procedural FuFi.all and SplitBB) encode
/// to the recorded sizes and digests, SAFE's ok-response over each pair
/// too, and decoding any of them re-encodes to the same bytes.
TEST(DiffWireProtocol, RequestAndResponseLayoutsArePinned) {
  const std::map<std::string, std::string> Pinned = {
      {"coreutils.arch FuFi.all request", "80096:6baa328095681eb5"},
      {"coreutils.arch FuFi.all response", "131:66a7be9dd39cf66a"},
      {"coreutils.arch None request", "48569:4a3674a269a03ac5"},
      {"coreutils.arch None response", "99:fad2c996a2b04dcc"},
      {"coreutils.arch SplitBB request", "70653:732fae94ce1450c5"},
      {"coreutils.arch SplitBB response", "99:950a9556741a7689"},
      {"coreutils.b2sum FuFi.all request", "28864:4f4f6b4e93c090ba"},
      {"coreutils.b2sum FuFi.all response", "119:874abf56415f91aa"},
      {"coreutils.b2sum None request", "15811:f91caecf13b00ea9"},
      {"coreutils.b2sum None response", "139:9e9e6d54a8aaa248"},
      {"coreutils.b2sum SplitBB request", "22275:85e327a8e70a650b"},
      {"coreutils.b2sum SplitBB response", "139:2da2f49666f32c12"},
      {"error response", "25:04d98c339de400b8"},
  };
  std::vector<Workload> Suite = coreUtilsSuite();
  Suite.resize(2);
  EvalPipeline Pipe;
  std::map<std::string, std::string> Got;
  for (const Workload &W : Suite) {
    for (ObfuscationMode Mode :
         {ObfuscationMode::None, ObfuscationMode::FuFiAll,
          ObfuscationMode::SplitBB}) {
      auto A = Pipe.baselineImage(W);
      auto B = Pipe.obfuscatedImage(W, Mode, 0xc906);
      ASSERT_TRUE(A->Ok && B->Ok) << W.Name;
      DiffWireRequest Req;
      Req.Tool = "SAFE";
      Req.A = A->Image;
      Req.FA = A->Features;
      Req.B = B->Image;
      Req.FB = B->Features;
      DiffWireResponse Resp;
      Resp.Ok = true;
      Resp.Result = createDiffTool("SAFE")->diff(Req.A, Req.FA, Req.B, Req.FB);
      std::string Cell = W.Name + " " + obfuscationModeName(Mode);
      std::vector<uint8_t> ReqBytes = encodeDiffRequest(Req);
      std::vector<uint8_t> RespBytes = encodeDiffResponse(Resp);
      Got[Cell + " request"] = frameDigest(ReqBytes);
      Got[Cell + " response"] = frameDigest(RespBytes);

      DiffWireRequest ReqBack;
      DiffWireResponse RespBack;
      std::string Err;
      ASSERT_TRUE(decodeDiffRequest(ReqBytes, ReqBack, Err)) << Err;
      ASSERT_TRUE(decodeDiffResponse(RespBytes, RespBack, Err)) << Err;
      EXPECT_EQ(encodeDiffRequest(ReqBack), ReqBytes) << Cell;
      EXPECT_EQ(encodeDiffResponse(RespBack), RespBytes) << Cell;
    }
  }
  DiffWireResponse Error;
  Error.Error = "worker gave up";
  Got["error response"] = frameDigest(encodeDiffResponse(Error));
  EXPECT_EQ(Got, Pinned);
}

/// Every strict prefix of a real request and of its ok-response — cut
/// inside a function, a block, an instruction or a feature vector — is
/// rejected with the header error or the truncated-body error, never a
/// crash or a partial success. An inner element count of 0xFFFFFFFF is
/// rejected before anything is allocated for it.
TEST(DiffWireProtocol, TruncationsInsideNestedRecordsAreRejected) {
  ProgramSpec S;
  S.Name = "prefix";
  S.NumFunctions = 3;
  S.Seed = 4;
  Workload W{S.Name, generateMiniCProgram(S), {}, {}};
  EvalPipeline Pipe;
  DiffImages I = Pipe.diffImages(W, ObfuscationMode::None);
  ASSERT_TRUE(I.Ok);
  DiffWireRequest Req;
  Req.Tool = "SAFE";
  Req.A = I.A;
  Req.FA = I.FA;
  Req.B = I.B;
  Req.FB = I.FB;
  DiffWireResponse Resp;
  Resp.Ok = true;
  Resp.Result = createDiffTool("SAFE")->diff(I.A, I.FA, I.B, I.FB);
  std::vector<uint8_t> ReqBytes = encodeDiffRequest(Req);
  std::vector<uint8_t> RespBytes = encodeDiffResponse(Resp);
  ASSERT_LT(ReqBytes.size(), 20000u); // Keeps the quadratic sweep quick.
  ASSERT_FALSE(Resp.Result.Rankings.empty());
  ASSERT_FALSE(Resp.Result.Rankings[0].empty());

  const size_t HeaderBytes = 7;
  for (size_t Len = 0; Len != ReqBytes.size(); ++Len) {
    std::vector<uint8_t> Cut(ReqBytes.begin(), ReqBytes.begin() + Len);
    DiffWireRequest Back;
    std::string Err;
    ASSERT_FALSE(decodeDiffRequest(Cut, Back, Err)) << Len;
    ASSERT_EQ(Err, Len < HeaderBytes ? "truncated frame header"
                                     : "truncated request body")
        << "request prefix of " << Len << " bytes";
  }
  for (size_t Len = 0; Len != RespBytes.size(); ++Len) {
    std::vector<uint8_t> Cut(RespBytes.begin(), RespBytes.begin() + Len);
    DiffWireResponse Back;
    std::string Err;
    ASSERT_FALSE(decodeDiffResponse(Cut, Back, Err)) << Len;
    ASSERT_EQ(Err, Len < HeaderBytes ? "truncated frame header"
                                     : "truncated response body")
        << "response prefix of " << Len << " bytes";
  }

  // The first block's instruction count, three records deep: header,
  // tool, image name, function count, then function 0's name, address,
  // exported byte, origins and block count, then block 0's name.
  const MFunction &F0 = Req.A.Functions.at(0);
  size_t Off = HeaderBytes + 4 + Req.Tool.size() + 4 + Req.A.Name.size() +
               4 + 4 + F0.Name.size() + 8 + 1 + 4;
  for (const std::string &O : F0.Origins)
    Off += 4 + O.size();
  Off += 4 + 4 + F0.Blocks.at(0).Name.size();
  uint32_t Count = 0;
  std::memcpy(&Count, &ReqBytes.at(Off), 4);
  ASSERT_EQ(Count, F0.Blocks[0].Insts.size());
  std::vector<uint8_t> Huge = ReqBytes;
  std::memset(&Huge[Off], 0xFF, 4);
  DiffWireRequest HugeBack;
  std::string Err;
  EXPECT_FALSE(decodeDiffRequest(Huge, HugeBack, Err));
  EXPECT_EQ(Err, "truncated request body");

  // Row 0's length inside the rankings (after the header and the row
  // count).
  Huge = RespBytes;
  std::memset(&Huge[HeaderBytes + 4], 0xFF, 4);
  DiffWireResponse HugeResp;
  EXPECT_FALSE(decodeDiffResponse(Huge, HugeResp, Err));
  EXPECT_EQ(Err, "truncated response body");
}

//===----------------------------------------------------------------------===//
// Subprocess backend vs in-process backend
//===----------------------------------------------------------------------===//

DiffImages testImages() {
  ProgramSpec S;
  S.Name = "oop";
  S.NumFunctions = 14;
  S.Seed = 9;
  Workload W{S.Name, generateMiniCProgram(S), {}, {}};
  EvalPipeline Pipe;
  DiffImages I = Pipe.diffImages(W, ObfuscationMode::Fission);
  EXPECT_TRUE(I.Ok);
  return I;
}

uint64_t bits(double D) {
  uint64_t B;
  std::memcpy(&B, &D, 8);
  return B;
}

TEST(SubprocessDiffTool, MatchesInProcessBitForBit) {
  ASSERT_TRUE(isDiffToolRegistered("safe-oop"));
  DiffImages I = testImages();
  ASSERT_TRUE(I.Ok);

  DiffResult InProc = createDiffTool("SAFE")->diff(I.A, I.FA, I.B, I.FB);
  DiffResult OOP = createDiffTool("safe-oop")->diff(I.A, I.FA, I.B, I.FB);
  EXPECT_EQ(InProc.Rankings, OOP.Rankings);
  // Raw IEEE-754 bit equality, not approximate: the wire carries bit
  // patterns and the worker runs the identical code.
  EXPECT_EQ(bits(InProc.WholeBinarySimilarity),
            bits(OOP.WholeBinarySimilarity));
}

TEST(SubprocessDiffTool, PrecisionMatrixByteIdenticalAcrossBackends) {
  std::vector<Workload> Suite;
  for (uint64_t Seed : {31u, 32u}) {
    ProgramSpec S;
    S.Name = "mx" + std::to_string(Seed);
    S.NumFunctions = 12;
    S.Seed = Seed;
    Suite.push_back({S.Name, generateMiniCProgram(S), {}, {}});
  }
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Sub,
                                              ObfuscationMode::FuFiAll};

  // Reference: in-process SAFE, 4 threads, cache on.
  EvalScheduler Ref({/*Threads=*/4, /*Seed=*/0xc906});
  auto Expected = Ref.precisionMatrix(Suite, Modes, {"SAFE"});

  // Subprocess SAFE across {1, 4} threads × {cache on, off}: the numbers
  // a bench would print are the PerTool doubles, so double equality here
  // is stdout byte-identity there.
  for (unsigned Threads : {1u, 4u}) {
    for (bool Cache : {true, false}) {
      EvalScheduler::Config C;
      C.Threads = Threads;
      C.Seed = 0xc906;
      C.CacheEnabled = Cache;
      EvalScheduler Sched(C);
      auto Got = Sched.precisionMatrix(Suite, Modes, {"safe-oop"});
      ASSERT_EQ(Got.size(), Expected.size());
      for (size_t I = 0; I != Got.size(); ++I) {
        EXPECT_EQ(Got[I].Ok, Expected[I].Ok);
        ASSERT_EQ(Got[I].PerTool.size(), 1u);
        EXPECT_EQ(bits(Got[I].PerTool[0]), bits(Expected[I].PerTool[0]))
            << "cell " << I << " threads=" << Threads
            << " cache=" << Cache;
      }
    }
  }
}

TEST(SubprocessDiffTool, WarmRerunPerformsZeroWorkerRoundTrips) {
  ProgramSpec S;
  S.Name = "warm";
  S.NumFunctions = 10;
  S.Seed = 21;
  std::vector<Workload> Suite{{S.Name, generateMiniCProgram(S), {}, {}}};
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Sub,
                                              ObfuscationMode::Fission};

  EvalScheduler Sched({/*Threads=*/2, /*Seed=*/0xc906});
  auto Cold = Sched.precisionMatrix(Suite, Modes, {"safe-oop"});
  uint64_t AfterCold = diffWorkerRoundTrips();
  EXPECT_GT(AfterCold, 0u);

  // Warm re-run: every DiffOutcome stage hits, so the pool is idle.
  auto Warm = Sched.precisionMatrix(Suite, Modes, {"safe-oop"});
  EXPECT_EQ(diffWorkerRoundTrips(), AfterCold);
  ASSERT_EQ(Warm.size(), Cold.size());
  for (size_t I = 0; I != Warm.size(); ++I)
    EXPECT_EQ(Warm[I].PerTool, Cold[I].PerTool);
}

//===----------------------------------------------------------------------===//
// Failure discipline: hangs time out, crashes respawn
//===----------------------------------------------------------------------===//

TEST(SubprocessDiffTool, HangingWorkerTimesOutWithoutStallingSiblings) {
  // A worker that reads the request and never answers. 400 ms budget:
  // the diff must fail in bounded time instead of stalling its shard.
  if (!isDiffToolRegistered("test-hang")) {
    SubprocessToolSpec Hang;
    Hang.Name = "test-hang";
    Hang.RemoteTool = "SAFE";
    Hang.Command = {defaultDiffWorkerPath(), "--test-hang"};
    Hang.TimeoutMs = 400;
    ASSERT_TRUE(registerSubprocessDiffTool(Hang));
  }

  DiffImages I = testImages();
  ASSERT_TRUE(I.Ok);
  EXPECT_THROW(createDiffTool("test-hang")->diff(I.A, I.FA, I.B, I.FB),
               DiffToolError);

  // In the matrix, the hanging tool fails its own (cell × tool) tasks
  // loudly; the sibling tool's tasks on the same cells still complete.
  ProgramSpec S;
  S.Name = "hangmx";
  S.NumFunctions = 10;
  S.Seed = 5;
  std::vector<Workload> Suite{{S.Name, generateMiniCProgram(S), {}, {}}};
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Sub,
                                              ObfuscationMode::Fission};
  EvalScheduler Sched({/*Threads=*/4, /*Seed=*/0xc906});
  EvalRunStats Run;
  auto Cells =
      Sched.precisionMatrix(Suite, Modes, {"Asm2Vec", "test-hang"}, &Run);
  ASSERT_EQ(Cells.size(), 2u);
  for (const auto &Cell : Cells) {
    ASSERT_TRUE(Cell.Ok);
    ASSERT_EQ(Cell.PerTool.size(), 2u);
    EXPECT_GE(Cell.PerTool[0], 0.0); // Sibling completed.
    EXPECT_EQ(Cell.PerTool[1], -1.0); // Hung task failed, marked n/a.
  }
  EXPECT_EQ(Run.ToolFailures, 2u);
  EXPECT_EQ(Run.Failures, 0u); // The cells themselves are fine.
}

TEST(SubprocessDiffTool, CrashedWorkerIsRespawnedAndRetrySucceeds) {
  // --test-crash-flag: the first-ever request crashes the worker before
  // it answers (and drops the flag file); the respawned worker sees the
  // file and serves. One crash consumes exactly the adapter's single
  // retry, so the call succeeds with two round trips.
  std::string Flag = ::testing::TempDir() + "khaos-crash-flag-" +
                     std::to_string(::getpid());
  std::remove(Flag.c_str());
  if (!isDiffToolRegistered("test-crash")) {
    SubprocessToolSpec Crash;
    Crash.Name = "test-crash";
    Crash.RemoteTool = "SAFE";
    Crash.Command = {defaultDiffWorkerPath(), "--tool", "SAFE",
                     "--test-crash-flag", Flag};
    ASSERT_TRUE(registerSubprocessDiffTool(Crash));
  }

  DiffImages I = testImages();
  ASSERT_TRUE(I.Ok);
  uint64_t Before = diffWorkerRoundTrips();
  DiffResult Got = createDiffTool("test-crash")->diff(I.A, I.FA, I.B, I.FB);
  EXPECT_EQ(diffWorkerRoundTrips() - Before, 2u);

  DiffResult Expected = createDiffTool("SAFE")->diff(I.A, I.FA, I.B, I.FB);
  EXPECT_EQ(Got.Rankings, Expected.Rankings);
  EXPECT_EQ(bits(Got.WholeBinarySimilarity),
            bits(Expected.WholeBinarySimilarity));
  std::remove(Flag.c_str());

  // Explicit pool shutdown (kills idle workers); the next request
  // respawns transparently.
  shutdownDiffWorkers();
  DiffResult Again = createDiffTool("safe-oop")->diff(I.A, I.FA, I.B, I.FB);
  EXPECT_EQ(Again.Rankings, Expected.Rankings);
}

TEST(SubprocessDiffTool, RankingsThatDoNotFitThePairAreRejected) {
  // A worker that answers every request with a canned, well-formed
  // response frame, whatever it was asked. Precision@1 indexes B's
  // functions with the rankings, so an out-of-range index must fail the
  // task instead of reaching the metrics.
  std::string Frame = ::testing::TempDir() + "khaos-bad-rank-" +
                      std::to_string(::getpid());
  if (!isDiffToolRegistered("test-bad-rank")) {
    SubprocessToolSpec Bad;
    Bad.Name = "test-bad-rank";
    Bad.Command = {"/bin/sh", "-c", "cat '" + Frame + "'; cat >/dev/null"};
    Bad.TimeoutMs = 5000;
    ASSERT_TRUE(registerSubprocessDiffTool(Bad));
  }
  auto Answer = [&](const DiffResult &R) {
    DiffWireResponse Resp;
    Resp.Ok = true;
    Resp.Result = R;
    int Fd = ::open(Frame.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    ASSERT_GE(Fd, 0);
    std::string Err;
    EXPECT_EQ(writeDiffFrame(Fd, encodeDiffResponse(Resp), -1, Err),
              FrameIOResult::Ok)
        << Err;
    ::close(Fd);
  };
  auto ErrorOf = [](const DiffImages &I) -> std::string {
    try {
      createDiffTool("test-bad-rank")->diff(I.A, I.FA, I.B, I.FB);
    } catch (const DiffToolError &E) {
      return E.what();
    }
    return "accepted";
  };

  DiffImages I = testImages();
  ASSERT_TRUE(I.Ok);
  DiffResult R;
  R.Rankings.assign(I.A.Functions.size(), {0});
  R.Rankings[3] = {1, 4000000000u};
  Answer(R);
  std::string Msg = ErrorOf(I);
  EXPECT_NE(Msg.find("malformed response"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("row 3 ranks index 4000000000"), std::string::npos)
      << Msg;

  // One row short. The previous worker was destroyed, not pooled: a
  // pooled one would sit on the request and time out instead.
  R.Rankings.assign(I.A.Functions.size() - 1, {0});
  Answer(R);
  Msg = ErrorOf(I);
  EXPECT_NE(Msg.find("malformed response"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("ranking rows"), std::string::npos) << Msg;

  // In a matrix the bad backend's tasks render n/a; the sibling tool and
  // the process carry on.
  ProgramSpec S;
  S.Name = "badrankmx";
  S.NumFunctions = 10;
  S.Seed = 7;
  std::vector<Workload> Suite{{S.Name, generateMiniCProgram(S), {}, {}}};
  EvalPipeline Pipe;
  R.Rankings.assign(Pipe.baselineImage(Suite[0])->Image.Functions.size(),
                    {4000000000u});
  Answer(R);
  EvalScheduler Sched({/*Threads=*/2, /*Seed=*/0xc906});
  EvalRunStats Run;
  auto Cells = Sched.precisionMatrix(Suite, {ObfuscationMode::Sub},
                                     {"Asm2Vec", "test-bad-rank"}, &Run);
  ASSERT_EQ(Cells.size(), 1u);
  ASSERT_TRUE(Cells[0].Ok);
  ASSERT_EQ(Cells[0].PerTool.size(), 2u);
  EXPECT_GE(Cells[0].PerTool[0], 0.0);
  EXPECT_EQ(Cells[0].PerTool[1], -1.0);
  EXPECT_EQ(Run.ToolFailures, 1u);
  std::remove(Frame.c_str());
}

} // namespace
