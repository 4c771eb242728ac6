//===- tests/EvalServiceTest.cpp - Eval daemon protocol + serving ---------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The khaos-evald serving contract: golden wire frames (the format
/// cannot drift silently), encode/decode round trips with malformed-frame
/// rejection, server/client parity against the same computation done
/// in-process, many concurrent clients on one shared warm pipeline, the
/// EvalScheduler's --connect routing producing identical matrices, and
/// hung-worker isolation (a timed-out subprocess tool fails one request
/// without stalling the daemon's other clients).
///
//===----------------------------------------------------------------------===//

#include "diffing/DiffWorkerProtocol.h"
#include "diffing/SubprocessDiffTool.h"
#include "harness/EvalScheduler.h"
#include "harness/EvalService.h"
#include "workloads/Suites.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace khaos;

namespace {

std::string freshSocket(const char *Tag) {
  static int Counter = 0;
  return ::testing::TempDir() + "khaos-evald-" + Tag + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(++Counter) +
         ".sock";
}

EvalPipeline::Config inProcessConfig() {
  return EvalPipeline::Config{/*CacheEnabled=*/true, /*StoreMaxBytes=*/0,
                              {}, 0};
}

//===----------------------------------------------------------------------===//
// Wire format.
//===----------------------------------------------------------------------===//

/// The 8-byte header is the protocol's anchor: "KEV1" little-endian,
/// version 3, type, kind. Pinning the exact bytes of a Ping request means
/// any layout change must bump EvalWireVersion rather than silently
/// desync daemon and clients built from different revisions (v2 added
/// the baseline build config to DiffTask requests and Ping responses;
/// v3 gave bit 5 of the baseline codegen byte to the compiler style).
TEST(EvalWire, GoldenPingRequestBytes) {
  EvalRequest Req;
  Req.Kind = EvalWireKind::Ping;
  std::vector<uint8_t> Bytes = encodeEvalRequest(Req);
  const std::vector<uint8_t> Expected = {
      0x31, 0x56, 0x45, 0x4B, // magic "KEV1" little-endian
      0x03, 0x00,             // version 3
      0x01,                   // type = request
      0x01,                   // kind = Ping
  };
  EXPECT_EQ(Bytes, Expected);
}

TEST(EvalWire, GoldenOverheadRequestBytes) {
  EvalRequest Req;
  Req.Kind = EvalWireKind::Overhead;
  Req.W.Name = "ab";
  Req.W.Source = "x";
  Req.Mode = ObfuscationMode::Fission;
  Req.Seed = 0x0102030405060708ull;
  std::vector<uint8_t> Bytes = encodeEvalRequest(Req);
  std::vector<uint8_t> Expected = {
      0x31, 0x56, 0x45, 0x4B, 0x03, 0x00, 0x01, 0x02, // header, kind=2
      0x02, 0x00, 0x00, 0x00, 'a',  'b',              // name
      0x01, 0x00, 0x00, 0x00, 'x',                    // source
      static_cast<uint8_t>(ObfuscationMode::Fission), // mode
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // seed LE
  };
  EXPECT_EQ(Bytes, Expected);
}

TEST(EvalWire, RequestRoundTripsEveryKind) {
  EvalRequest Req;
  Req.Kind = EvalWireKind::DiffTask;
  Req.W.Name = "wl";
  Req.W.Source = "int main() { return 0; }";
  Req.W.VulnFunctions = {"f", "g"};
  Req.Mode = ObfuscationMode::Fusion;
  Req.Seed = 77;
  Req.Tool = "SAFE";
  Req.BaselineLevel = 0;      // An O0 confound cell.
  Req.BaselineCodegen = 0x3f; // Spill + every knob + gcc style (bit 5).

  EvalRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeEvalRequest(encodeEvalRequest(Req), Out, Err)) << Err;
  EXPECT_EQ(Out.Kind, Req.Kind);
  EXPECT_EQ(Out.W.Name, Req.W.Name);
  EXPECT_EQ(Out.W.Source, Req.W.Source);
  EXPECT_EQ(Out.W.VulnFunctions, Req.W.VulnFunctions);
  EXPECT_EQ(Out.Mode, Req.Mode);
  EXPECT_EQ(Out.Seed, Req.Seed);
  EXPECT_EQ(Out.Tool, Req.Tool);
  EXPECT_EQ(Out.BaselineLevel, Req.BaselineLevel);
  EXPECT_EQ(Out.BaselineCodegen, Req.BaselineCodegen);
}

TEST(EvalWire, ResponseRoundTripsWithDoublesBitExact) {
  EvalResponse Resp;
  Resp.Kind = EvalWireKind::DiffTask;
  Resp.Ok = true;
  Resp.Diff.ImagesOk = true;
  Resp.Diff.ToolOk = true;
  Resp.Diff.Precision = 0.1 + 0.2; // A value with ugly low bits.
  Resp.Diff.Similarity = 1.0 / 3.0;
  Resp.Diff.VulnRanks = {0, 4, UINT32_MAX};

  EvalResponse Out;
  std::string Err;
  ASSERT_TRUE(decodeEvalResponse(encodeEvalResponse(Resp), Out, Err)) << Err;
  // Bit-exact, not approximately-equal: byte-identical stdout depends
  // on doubles crossing the wire as raw IEEE-754 bits.
  EXPECT_EQ(Out.Diff.Precision, Resp.Diff.Precision);
  EXPECT_EQ(Out.Diff.Similarity, Resp.Diff.Similarity);
  EXPECT_EQ(Out.Diff.VulnRanks, Resp.Diff.VulnRanks);

  EvalResponse ErrResp;
  ErrResp.Kind = EvalWireKind::Overhead;
  ErrResp.Ok = false;
  ErrResp.Error = "unknown diffing tool 'nope'";
  ASSERT_TRUE(decodeEvalResponse(encodeEvalResponse(ErrResp), Out, Err));
  EXPECT_FALSE(Out.Ok);
  EXPECT_EQ(Out.Error, ErrResp.Error);
}

TEST(EvalWire, MalformedFramesAreRejectedNotCrashed) {
  EvalRequest Req;
  std::string Err;

  // Truncated at every prefix of a valid frame.
  EvalRequest Whole;
  Whole.Kind = EvalWireKind::DiffTask;
  Whole.W.Name = "w";
  Whole.Tool = "SAFE";
  std::vector<uint8_t> Valid = encodeEvalRequest(Whole);
  for (size_t Len = 0; Len != Valid.size(); ++Len) {
    std::vector<uint8_t> Cut(Valid.begin(), Valid.begin() + Len);
    EXPECT_FALSE(decodeEvalRequest(Cut, Req, Err)) << "length " << Len;
  }

  // Wrong magic, wrong version, trailing garbage.
  std::vector<uint8_t> BadMagic = Valid;
  BadMagic[0] ^= 0xff;
  EXPECT_FALSE(decodeEvalRequest(BadMagic, Req, Err));
  std::vector<uint8_t> BadVersion = Valid;
  BadVersion[4] = 0x7f;
  EXPECT_FALSE(decodeEvalRequest(BadVersion, Req, Err));
  std::vector<uint8_t> Trailing = Valid;
  Trailing.push_back(0);
  EXPECT_FALSE(decodeEvalRequest(Trailing, Req, Err));
}

TEST(EvalWire, Version2PeersAreRejectedByName) {
  // A v2 client would silently ignore the compiler-style bit and alias
  // clang/gcc artifact keys, so a v3 daemon must refuse its frames at the
  // header — and say which version it saw, so the mismatch is debuggable
  // from the client's error line alone.
  EvalRequest Whole;
  Whole.Kind = EvalWireKind::Ping;
  std::vector<uint8_t> V2Frame = encodeEvalRequest(Whole);
  V2Frame[4] = 0x02; // Rewind the header to version 2.
  V2Frame[5] = 0x00;
  EvalRequest Req;
  std::string Err;
  EXPECT_FALSE(decodeEvalRequest(V2Frame, Req, Err));
  EXPECT_NE(Err.find("unsupported protocol version 2"), std::string::npos)
      << Err;
}

/// The v3 fuzz-batch request an older khaos-fuzz --connect sent: the
/// header with kind 4, then seed, budget, engine, cross-vm and verbose.
std::vector<uint8_t> retiredFuzzBatchFrame() {
  return {
      0x31, 0x56, 0x45, 0x4B, 0x03, 0x00, 0x01, 0x04, // header, kind=4
      0x51, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seed
      0x04, 0x00, 0x00, 0x00,                         // budget
      0x01, 0x00, 0x01,                               // engine, flags
  };
}

TEST(EvalWire, RetiredFuzzBatchKindIsUnknown) {
  // Kind 4 is never reused, so the decoder names it rather than reading
  // an old client's frame as some newer kind.
  EvalRequest Req;
  std::string Err;
  EXPECT_FALSE(decodeEvalRequest(retiredFuzzBatchFrame(), Req, Err));
  EXPECT_EQ(Err, "unknown request kind 4");
}

/// "<size>:<FNV-1a of the bytes>" — a frame's identity in the pin table.
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

const EvalWireKind AllKinds[] = {EvalWireKind::Ping, EvalWireKind::Overhead,
                                 EvalWireKind::DiffTask};

/// A request with every field set away from its default, so a field
/// dropped or reordered in any kind's layout moves that kind's bytes.
EvalRequest fullRequest(EvalWireKind Kind) {
  EvalRequest Req;
  Req.Kind = Kind;
  Req.W.Name = "pin-wl";
  Req.W.Source = "int main() { return 7; }";
  Req.W.VulnFunctions = {"parse_header", "copy_field"};
  Req.Mode = ObfuscationMode::SplitBB;
  Req.Seed = 0x0123456789abcdefull;
  Req.Tool = "SAFE";
  Req.BaselineLevel = 1;
  Req.BaselineCodegen = 0x3f;
  return Req;
}

/// The ok-response counterpart of fullRequest.
EvalResponse fullResponse(EvalWireKind Kind) {
  EvalResponse Resp;
  Resp.Kind = Kind;
  Resp.Ok = true;
  Resp.Engine = 1;
  Resp.CacheEnabled = 1;
  Resp.HasDiskTier = 1;
  Resp.BaselineLevel = 3;
  Resp.BaselineCodegen = 0x21;
  Resp.Measured = 1;
  Resp.Percent = 12.5 + 1.0 / 3.0;
  Resp.Diff.ImagesOk = true;
  Resp.Diff.ToolOk = true;
  Resp.Diff.ToolError = "tool-error-text";
  Resp.Diff.Precision = 0.1 + 0.2;
  Resp.Diff.Similarity = 2.0 / 3.0;
  Resp.Diff.VulnRanks = {3, 0, UINT32_MAX};
  return Resp;
}

/// Every kind's request, ok-response and error-response bytes, pinned:
/// the golden frames above cover only Ping and Overhead requests, so a
/// field reordered in the DiffTask request or in any response body would
/// pass them unnoticed. Decoding each frame
/// re-encodes to the same bytes.
TEST(EvalWire, EveryKindsFramesArePinned) {
  const std::map<std::string, std::string> Pinned = {
      {"kind 1 error-response", "28:3c0940073984c0ee"},
      {"kind 1 ok-response", "13:e1f5a717a2962a1d"},
      {"kind 1 request", "8:50c815ccafcd6937"},
      {"kind 2 error-response", "28:23203ab342cb4673"},
      {"kind 2 ok-response", "17:bc823c4feeae54d4"},
      {"kind 2 request", "55:83786744b410db35"},
      {"kind 3 error-response", "28:479f475e72042b78"},
      {"kind 3 ok-response", "61:215ea3e823dacf03"},
      {"kind 3 request", "99:d82d66ecbe267098"},
  };
  std::map<std::string, std::string> Got;
  for (EvalWireKind Kind : AllKinds) {
    std::string Name = "kind " + std::to_string(static_cast<unsigned>(Kind));
    EvalResponse Error;
    Error.Kind = Kind;
    Error.Error = "protocol trouble";
    std::vector<uint8_t> ReqBytes = encodeEvalRequest(fullRequest(Kind));
    std::vector<uint8_t> OkBytes = encodeEvalResponse(fullResponse(Kind));
    std::vector<uint8_t> ErrBytes = encodeEvalResponse(Error);
    Got[Name + " request"] = frameDigest(ReqBytes);
    Got[Name + " ok-response"] = frameDigest(OkBytes);
    Got[Name + " error-response"] = frameDigest(ErrBytes);

    EvalRequest ReqBack;
    EvalResponse OkBack, ErrBack;
    std::string Err;
    ASSERT_TRUE(decodeEvalRequest(ReqBytes, ReqBack, Err)) << Err;
    ASSERT_TRUE(decodeEvalResponse(OkBytes, OkBack, Err)) << Err;
    ASSERT_TRUE(decodeEvalResponse(ErrBytes, ErrBack, Err)) << Err;
    EXPECT_EQ(encodeEvalRequest(ReqBack), ReqBytes) << Name;
    EXPECT_EQ(encodeEvalResponse(OkBack), OkBytes) << Name;
    EXPECT_EQ(encodeEvalResponse(ErrBack), ErrBytes) << Name;
  }
  EXPECT_EQ(Got, Pinned);
}

/// Every strict prefix of a DiffTask request and response whose vectors
/// are non-empty is rejected with the header error or the truncated-body
/// error, and an element count of 0xFFFFFFFF is rejected before anything
/// is allocated for it.
TEST(EvalWire, TruncationsInsideSequencesAreRejected) {
  const size_t HeaderBytes = 8;
  std::vector<uint8_t> ReqBytes =
      encodeEvalRequest(fullRequest(EvalWireKind::DiffTask));
  std::vector<uint8_t> RespBytes =
      encodeEvalResponse(fullResponse(EvalWireKind::DiffTask));
  for (size_t Len = 0; Len != ReqBytes.size(); ++Len) {
    std::vector<uint8_t> Cut(ReqBytes.begin(), ReqBytes.begin() + Len);
    EvalRequest Back;
    std::string Err;
    ASSERT_FALSE(decodeEvalRequest(Cut, Back, Err)) << Len;
    ASSERT_EQ(Err, Len < HeaderBytes ? "truncated frame header"
                                     : "truncated request body")
        << "request prefix of " << Len << " bytes";
  }
  for (size_t Len = 0; Len != RespBytes.size(); ++Len) {
    std::vector<uint8_t> Cut(RespBytes.begin(), RespBytes.begin() + Len);
    EvalResponse Back;
    std::string Err;
    ASSERT_FALSE(decodeEvalResponse(Cut, Back, Err)) << Len;
    ASSERT_EQ(Err, Len < HeaderBytes ? "truncated frame header"
                                     : "truncated response body")
        << "response prefix of " << Len << " bytes";
  }

  // VulnFunctions' count follows the workload name and source.
  EvalRequest Req = fullRequest(EvalWireKind::DiffTask);
  size_t Off =
      HeaderBytes + 4 + Req.W.Name.size() + 4 + Req.W.Source.size();
  uint32_t Count = 0;
  std::memcpy(&Count, &ReqBytes.at(Off), 4);
  ASSERT_EQ(Count, Req.W.VulnFunctions.size());
  std::vector<uint8_t> Huge = ReqBytes;
  std::memset(&Huge[Off], 0xFF, 4);
  EvalRequest HugeReq;
  std::string Err;
  EXPECT_FALSE(decodeEvalRequest(Huge, HugeReq, Err));
  EXPECT_EQ(Err, "truncated request body");

  // VulnRanks' count follows ImagesOk, ToolOk, ToolError and the two
  // doubles.
  EvalResponse Resp = fullResponse(EvalWireKind::DiffTask);
  Off = HeaderBytes + 1 + 1 + 4 + Resp.Diff.ToolError.size() + 8 + 8;
  std::memcpy(&Count, &RespBytes.at(Off), 4);
  ASSERT_EQ(Count, Resp.Diff.VulnRanks.size());
  Huge = RespBytes;
  std::memset(&Huge[Off], 0xFF, 4);
  EvalResponse HugeResp;
  EXPECT_FALSE(decodeEvalResponse(Huge, HugeResp, Err));
  EXPECT_EQ(Err, "truncated response body");
}

//===----------------------------------------------------------------------===//
// Serving.
//===----------------------------------------------------------------------===//

TEST(EvalServer, PingReportsDaemonConfiguration) {
  EvalServer Server({freshSocket("ping"), inProcessConfig()});
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  EvalClient Client;
  ASSERT_TRUE(Client.connect(Server.socketPath(), Err)) << Err;
  EvalRequest Req;
  Req.Kind = EvalWireKind::Ping;
  EvalResponse Resp;
  ASSERT_TRUE(Client.call(Req, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.Ok);
  EXPECT_EQ(Resp.Engine, static_cast<uint8_t>(VMEngine::Precompiled));
  EXPECT_EQ(Resp.CacheEnabled, 1);
  EXPECT_EQ(Resp.HasDiskTier, 0);
  // The daemon advertises its baseline build config (the confound axis);
  // the default pipeline runs the paper's O2 reference build. The wire
  // defaults in EvalRequest must stay in lockstep with BuildConfig{}.
  EXPECT_EQ(Resp.BaselineLevel, static_cast<uint8_t>(OptLevel::O2));
  EXPECT_EQ(Resp.BaselineCodegen, BuildConfig{}.packedCodegen());
  EXPECT_EQ(EvalRequest{}.BaselineLevel, Resp.BaselineLevel);
  EXPECT_EQ(EvalRequest{}.BaselineCodegen, Resp.BaselineCodegen);
  EXPECT_EQ(Server.requestsServed(), 1u);
}

TEST(EvalServer, DiffTaskMatchesInProcessPipeline) {
  Workload W = specCpu2006Suite().front();
  const ObfuscationMode Mode = ObfuscationMode::Fission;
  const uint64_t Seed = 0xc906;

  // The reference: the same computation done in-process.
  EvalPipeline Local(inProcessConfig());
  EvalPipeline::DiffTaskResult LocalDiff =
      Local.diffTask(W, BuildConfig{}, Mode, Seed, "SAFE");
  ASSERT_TRUE(LocalDiff.ToolOk);

  EvalServer Server({freshSocket("diff"), inProcessConfig()});
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;
  EvalClient Client;
  ASSERT_TRUE(Client.connect(Server.socketPath(), Err)) << Err;

  EvalRequest Req;
  Req.Kind = EvalWireKind::DiffTask;
  Req.W = W;
  Req.Mode = Mode;
  Req.Seed = Seed;
  Req.Tool = "SAFE";
  EvalResponse Resp;
  ASSERT_TRUE(Client.call(Req, Resp, Err)) << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_TRUE(Resp.Diff.ImagesOk);
  EXPECT_TRUE(Resp.Diff.ToolOk);
  EXPECT_EQ(Resp.Diff.Precision, LocalDiff.Precision);
  EXPECT_EQ(Resp.Diff.Similarity, LocalDiff.Similarity);
  EXPECT_EQ(Resp.Diff.VulnRanks, LocalDiff.VulnRanks);

  // An unknown tool is a protocol error response, never a daemon abort.
  Req.Tool = "no-such-tool";
  ASSERT_TRUE(Client.call(Req, Resp, Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Error.find("no-such-tool"), std::string::npos);

  // The daemon is still alive and serving after the error.
  Req.Kind = EvalWireKind::Ping;
  ASSERT_TRUE(Client.call(Req, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.Ok);
}

TEST(EvalServer, FourConcurrentClientsShareOneWarmPipeline) {
  std::vector<Workload> Suite = specCpu2006Suite();
  Suite.resize(2);
  const ObfuscationMode Mode = ObfuscationMode::Sub;
  const uint64_t Seed = 0xc906;

  EvalPipeline Local(inProcessConfig());
  std::vector<double> Expected;
  for (const Workload &W : Suite) {
    double Pct = 0.0;
    ASSERT_TRUE(Local.overheadPercent(W, Mode, Pct, Seed));
    Expected.push_back(Pct);
  }

  EvalServer Server({freshSocket("concurrent"), inProcessConfig()});
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  // 4 clients, each asking for every cell: answers must agree with the
  // in-process run bit for bit, concurrently, over one shared pipeline.
  std::vector<std::vector<double>> Got(4);
  std::vector<std::string> Errors(4);
  std::vector<std::thread> Threads;
  for (int C = 0; C != 4; ++C)
    Threads.emplace_back([&, C] {
      EvalClient Client;
      std::string E;
      if (!Client.connect(Server.socketPath(), E)) {
        Errors[C] = E;
        return;
      }
      for (const Workload &W : Suite) {
        EvalRequest Req;
        Req.Kind = EvalWireKind::Overhead;
        Req.W = W;
        Req.Mode = Mode;
        Req.Seed = Seed;
        EvalResponse Resp;
        if (!Client.call(Req, Resp, E) || !Resp.Ok || !Resp.Measured) {
          Errors[C] = E.empty() ? Resp.Error : E;
          return;
        }
        Got[C].push_back(Resp.Percent);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  for (int C = 0; C != 4; ++C) {
    EXPECT_EQ(Errors[C], "");
    EXPECT_EQ(Got[C], Expected) << "client " << C;
  }
  EXPECT_EQ(Server.requestsServed(), 4u * Suite.size());
}

/// Raw IEEE-754 bits, so "identical" means bit-identical (0.0 vs -0.0
/// and NaN payloads included), the property byte-identical stdout needs.
std::vector<uint64_t> bitsOf(const std::vector<double> &V) {
  std::vector<uint64_t> Bits(V.size());
  if (!V.empty())
    std::memcpy(Bits.data(), V.data(), V.size() * sizeof(double));
  return Bits;
}

TEST(EvalServer, SchedulerConnectMatrixMatchesInProcess) {
  // Two generated programs, each with two named functions ranked as
  // vulnerable (the vulnerableSuite recipe), so the rank comparison below
  // compares real ranks rather than empty vectors.
  std::vector<Workload> Suite;
  for (uint64_t Seed : {11u, 12u}) {
    ProgramSpec S;
    S.Name = "evald-sched-" + std::to_string(Seed);
    S.NumFunctions = 10;
    S.Seed = Seed;
    S.NamedFunctions = {"parse_header", "copy_field"};
    Suite.push_back({S.Name, generateMiniCProgram(S), S.NamedFunctions, {}});
  }
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Fission,
                                              ObfuscationMode::Sub};
  const std::vector<std::string> Tools = {"Asm2Vec", "SAFE"};
  // The config axis crosses the wire in each DiffTask request.
  const std::vector<BuildConfig> Configs = {
      BuildConfig::forLevel(OptLevel::O0), BuildConfig{}};

  EvalScheduler LocalSched({/*Threads=*/4, /*Seed=*/0xc906});
  EvalRunStats LocalRun, LocalGridRun;
  auto LocalCells =
      LocalSched.precisionMatrix(Suite, Modes, Tools, &LocalRun);
  auto LocalOverheads = LocalSched.overheadMatrix(Suite, Modes);
  auto LocalRanks = LocalSched.vulnRankMatrix(Suite, Modes, Tools);
  auto LocalGrid =
      LocalSched.confoundMatrix(Suite, Configs, Modes, Tools, &LocalGridRun);

  EvalServer Server({freshSocket("sched"), inProcessConfig()});
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  EvalScheduler::Config RC;
  RC.Threads = 4;
  RC.Seed = 0xc906;
  RC.ConnectPath = Server.socketPath();
  EvalScheduler Remote(RC);
  ASSERT_TRUE(Remote.remote());
  EvalRunStats RemoteRun, RemoteGridRun;
  auto RemoteCells = Remote.precisionMatrix(Suite, Modes, Tools, &RemoteRun);
  auto RemoteOverheads = Remote.overheadMatrix(Suite, Modes);
  auto RemoteRanks = Remote.vulnRankMatrix(Suite, Modes, Tools);
  auto RemoteGrid =
      Remote.confoundMatrix(Suite, Configs, Modes, Tools, &RemoteGridRun);

  ASSERT_EQ(RemoteCells.size(), LocalCells.size());
  for (size_t I = 0; I != LocalCells.size(); ++I) {
    EXPECT_EQ(RemoteCells[I].Ran, LocalCells[I].Ran);
    EXPECT_EQ(RemoteCells[I].Ok, LocalCells[I].Ok);
    EXPECT_EQ(RemoteCells[I].PerTool, LocalCells[I].PerTool) << "cell " << I;
  }
  ASSERT_EQ(RemoteOverheads.size(), LocalOverheads.size());
  for (size_t I = 0; I != LocalOverheads.size(); ++I) {
    EXPECT_EQ(RemoteOverheads[I].Ok, LocalOverheads[I].Ok);
    EXPECT_EQ(RemoteOverheads[I].Percent, LocalOverheads[I].Percent);
  }
  ASSERT_EQ(RemoteRanks.size(), LocalRanks.size());
  bool AnyFiniteRank = false;
  for (size_t I = 0; I != LocalRanks.size(); ++I) {
    EXPECT_EQ(RemoteRanks[I].PerTool, LocalRanks[I].PerTool) << "cell " << I;
    for (const std::vector<uint32_t> &Ranks : LocalRanks[I].PerTool)
      for (uint32_t Rank : Ranks)
        AnyFiniteRank |= Rank != UINT32_MAX;
  }
  EXPECT_TRUE(AnyFiniteRank);

  ASSERT_EQ(LocalGrid.size(), Suite.size() * Configs.size() * Modes.size());
  ASSERT_EQ(RemoteGrid.size(), LocalGrid.size());
  for (size_t I = 0; I != LocalGrid.size(); ++I) {
    EXPECT_EQ(RemoteGrid[I].Ran, LocalGrid[I].Ran);
    EXPECT_EQ(RemoteGrid[I].Ok, LocalGrid[I].Ok);
    EXPECT_EQ(bitsOf(RemoteGrid[I].PerToolPrecision),
              bitsOf(LocalGrid[I].PerToolPrecision))
        << "cell " << I;
    EXPECT_EQ(bitsOf(RemoteGrid[I].PerToolSimilarity),
              bitsOf(LocalGrid[I].PerToolSimilarity))
        << "cell " << I;
  }

  EXPECT_EQ(RemoteRun.Cells, LocalRun.Cells);
  EXPECT_EQ(RemoteRun.Failures, LocalRun.Failures);
  EXPECT_EQ(RemoteRun.ToolFailures, LocalRun.ToolFailures);
  EXPECT_EQ(LocalGridRun.Cells, LocalGrid.size());
  EXPECT_EQ(RemoteGridRun.Cells, LocalGridRun.Cells);
  EXPECT_EQ(RemoteGridRun.Failures, LocalGridRun.Failures);
  EXPECT_EQ(RemoteGridRun.ToolFailures, LocalGridRun.ToolFailures);
  // Cache accounting lives daemon-side in remote mode.
  EXPECT_EQ(RemoteRun.Cache.Hits + RemoteRun.Cache.Misses, 0u);
  EXPECT_EQ(RemoteGridRun.Cache.Hits + RemoteGridRun.Cache.Misses, 0u);
}

/// Enum-typed wire bytes are cast straight to their enums, so a byte
/// that names no enumerator (or a codegen byte with bits above the
/// compiler style) must fail as a malformed request naming the field —
/// never run a configuration nobody asked for under a fresh cache key —
/// and the daemon keeps serving.
TEST(EvalServer, OutOfRangeFieldBytesAreRejectedByName) {
  EvalServer Server({freshSocket("fields"), inProcessConfig()});
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;
  EvalClient Client;
  ASSERT_TRUE(Client.connect(Server.socketPath(), Err)) << Err;

  EvalRequest Diff;
  Diff.Kind = EvalWireKind::DiffTask;
  Diff.W.Name = "fields-wl";
  Diff.W.Source = "int main() { return 0; }";
  Diff.Mode = ObfuscationMode::Sub;
  Diff.Seed = 0xc906;
  Diff.Tool = "SAFE";

  EvalRequest BadMode = Diff;
  BadMode.Mode = static_cast<ObfuscationMode>(0xff);
  EvalRequest BadLevel = Diff;
  BadLevel.BaselineLevel = 9;
  EvalRequest BadCodegen = Diff;
  BadCodegen.BaselineCodegen = 0xde;
  EvalRequest BadOverheadMode;
  BadOverheadMode.Kind = EvalWireKind::Overhead;
  BadOverheadMode.W = Diff.W;
  BadOverheadMode.Mode = static_cast<ObfuscationMode>(
      static_cast<uint8_t>(ObfuscationMode::SplitBB) + 1);

  const std::pair<const char *, EvalRequest> Cases[] = {
      {"Mode", BadMode},
      {"BaselineLevel", BadLevel},
      {"BaselineCodegen", BadCodegen},
      {"Mode", BadOverheadMode},
  };
  for (const auto &[Field, Req] : Cases) {
    EvalResponse Resp;
    ASSERT_TRUE(Client.call(Req, Resp, Err)) << Err;
    EXPECT_FALSE(Resp.Ok) << Field;
    EXPECT_EQ(Resp.Error.rfind("malformed request: ", 0), 0u) << Resp.Error;
    EXPECT_NE(Resp.Error.find(Field), std::string::npos) << Resp.Error;
  }

  // Still serving: the in-range request is answered.
  EvalResponse Resp;
  ASSERT_TRUE(Client.call(Diff, Resp, Err)) << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_TRUE(Resp.Diff.ImagesOk);
  EXPECT_TRUE(Resp.Diff.ToolOk);
}

TEST(EvalServer, RetiredFuzzBatchKindGetsAnErrorResponse) {
  EvalServer Server({freshSocket("kind4"), inProcessConfig()});
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  // Frames sent raw, each on a connection of its own: the old client's
  // kind-4 frame (EvalClient cannot encode kind 4) and a DiffTask frame
  // one byte short. Each error reply carries the kind its header named.
  std::vector<uint8_t> Cut =
      encodeEvalRequest(fullRequest(EvalWireKind::DiffTask));
  Cut.pop_back();
  const std::tuple<std::vector<uint8_t>, unsigned, const char *> Cases[] = {
      {retiredFuzzBatchFrame(), 4,
       "malformed request: unknown request kind 4"},
      {Cut, 3, "malformed request: truncated request body"},
  };
  EvalResponse Resp;
  for (const auto &[Frame, Kind, Error] : Cases) {
    int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(S, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Server.socketPath().c_str(),
                 sizeof(Addr.sun_path) - 1);
    ASSERT_EQ(
        ::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
    std::vector<uint8_t> Payload;
    ASSERT_EQ(writeDiffFrame(S, Frame, -1, Err), FrameIOResult::Ok) << Err;
    ASSERT_EQ(readDiffFrame(S, Payload, -1, Err), FrameIOResult::Ok) << Err;
    ::close(S);

    ASSERT_TRUE(decodeEvalResponse(Payload, Resp, Err)) << Err;
    EXPECT_FALSE(Resp.Ok);
    EXPECT_EQ(Resp.Error, Error);
    EXPECT_EQ(static_cast<unsigned>(Resp.Kind), Kind);
  }

  // The daemon keeps serving.
  EvalClient Client;
  ASSERT_TRUE(Client.connect(Server.socketPath(), Err)) << Err;
  EvalRequest Ping;
  Ping.Kind = EvalWireKind::Ping;
  ASSERT_TRUE(Client.call(Ping, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.Ok);
}

TEST(EvalServer, HungWorkerFailsOneRequestWithoutStallingOthers) {
  // A subprocess diff tool that reads its request and never answers
  // (same registration the DiffWorker suite uses). Served remotely, its
  // timeout must fail only its own (cell × tool) tasks while another
  // client's pings keep flowing.
  if (!isDiffToolRegistered("test-hang")) {
    SubprocessToolSpec Hang;
    Hang.Name = "test-hang";
    Hang.RemoteTool = "SAFE";
    Hang.Command = {defaultDiffWorkerPath(), "--test-hang"};
    Hang.TimeoutMs = 400;
    ASSERT_TRUE(registerSubprocessDiffTool(Hang));
  }

  EvalServer Server({freshSocket("hang"), inProcessConfig()});
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  // While the hang requests time out, a second client pings in a loop;
  // every ping must answer long before the hang tool's budget expires.
  std::atomic<bool> Done{false};
  std::atomic<int> Pings{0};
  std::atomic<int> PingFailures{0};
  std::thread Pinger([&] {
    EvalClient Client;
    std::string E;
    if (!Client.connect(Server.socketPath(), E))
      return;
    while (!Done.load()) {
      EvalRequest Req;
      Req.Kind = EvalWireKind::Ping;
      EvalResponse Resp;
      if (!Client.call(Req, Resp, E) || !Resp.Ok)
        PingFailures.fetch_add(1);
      else
        Pings.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  ProgramSpec S;
  S.Name = "evald-hang";
  S.NumFunctions = 8;
  S.Seed = 5;
  std::vector<Workload> Suite{{S.Name, generateMiniCProgram(S), {}, {}}};
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Sub,
                                              ObfuscationMode::Fission};
  EvalScheduler::Config RC;
  RC.Threads = 4;
  RC.Seed = 0xc906;
  RC.ConnectPath = Server.socketPath();
  EvalScheduler Remote(RC);
  EvalRunStats Run;
  auto Cells =
      Remote.precisionMatrix(Suite, Modes, {"Asm2Vec", "test-hang"}, &Run);
  Done.store(true);
  Pinger.join();

  ASSERT_EQ(Cells.size(), 2u);
  for (const auto &Cell : Cells) {
    ASSERT_TRUE(Cell.Ok);
    ASSERT_EQ(Cell.PerTool.size(), 2u);
    EXPECT_GE(Cell.PerTool[0], 0.0);  // Sibling tool completed.
    EXPECT_EQ(Cell.PerTool[1], -1.0); // Hung tool failed, marked n/a.
  }
  EXPECT_EQ(Run.ToolFailures, 2u);
  EXPECT_EQ(Run.Failures, 0u);
  EXPECT_GT(Pings.load(), 0);
  EXPECT_EQ(PingFailures.load(), 0);
}

/// A client that vanishes mid-conversation must cost the daemon nothing.
/// Three disconnect shapes: half a frame on the wire (mid-frame EOF on
/// the daemon's read), a fire-and-forget request whose response write
/// lands on a closed socket (EPIPE — fatal SIGPIPE unless ignored), and
/// the same with a slow request so the write provably happens after the
/// close. After all three the daemon still answers a fresh client.
TEST(EvalServer, MidFrameClientDisconnectLeavesDaemonServing) {
  EvalServer Server({freshSocket("disconnect"), inProcessConfig()});
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  auto RawConnect = [&]() {
    int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(S, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Server.socketPath().c_str(),
                 sizeof(Addr.sun_path) - 1);
    EXPECT_EQ(::connect(S, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0);
    return S;
  };
  auto SendRaw = [](int S, const std::vector<uint8_t> &Bytes) {
    ASSERT_EQ(::write(S, Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
  };
  auto SendFrame = [&](int S, const std::vector<uint8_t> &Payload) {
    uint32_t Len = static_cast<uint32_t>(Payload.size());
    std::vector<uint8_t> Bytes = {
        static_cast<uint8_t>(Len), static_cast<uint8_t>(Len >> 8),
        static_cast<uint8_t>(Len >> 16), static_cast<uint8_t>(Len >> 24)};
    Bytes.insert(Bytes.end(), Payload.begin(), Payload.end());
    SendRaw(S, Bytes);
  };

  // Shape 1: a length prefix promising 64 bytes, 4 delivered, then gone.
  {
    int S = RawConnect();
    SendRaw(S, {64, 0, 0, 0, 0x31, 0x56, 0x45, 0x4B});
    ::close(S);
  }

  // Shape 2: a complete Ping whose answer may race our close.
  {
    EvalRequest Ping;
    Ping.Kind = EvalWireKind::Ping;
    int S = RawConnect();
    SendFrame(S, encodeEvalRequest(Ping));
    ::close(S);
  }

  // Shape 3: an Overhead request does real compile+run work, so the
  // daemon's response write is guaranteed to happen after our close and
  // hit the dead socket.
  {
    EvalRequest Slow;
    Slow.Kind = EvalWireKind::Overhead;
    Slow.W.Name = "disc-wl";
    Slow.W.Source = "int main() { return 0; }";
    Slow.Mode = ObfuscationMode::Sub;
    Slow.Seed = 0xc906;
    int S = RawConnect();
    SendFrame(S, encodeEvalRequest(Slow));
    ::close(S);
  }

  // Give the connection threads time to trip over the dead sockets, then
  // prove the daemon survived all three.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EvalClient Client;
  ASSERT_TRUE(Client.connect(Server.socketPath(), Err)) << Err;
  EvalRequest Req;
  Req.Kind = EvalWireKind::Ping;
  EvalResponse Resp;
  ASSERT_TRUE(Client.call(Req, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.Ok);
}

} // namespace
