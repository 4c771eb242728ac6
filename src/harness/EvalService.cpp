//===- harness/EvalService.cpp - Long-lived eval/diff service -------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/EvalService.h"

#include "diffing/DiffWorkerProtocol.h"
#include "harness/DifferentialFuzzer.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace khaos;

namespace {

/// A dying client connection must never kill the daemon with SIGPIPE;
/// writeDiffFrame turns EPIPE into a clean Eof instead.
void ignoreSigpipeOnce() {
  static bool Done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)Done;
}

void writeHeader(WireWriter &W, EvalWireType Type, EvalWireKind Kind) {
  W.u32(EvalWireMagic);
  W.u16(EvalWireVersion);
  W.u8(static_cast<uint8_t>(Type));
  W.u8(static_cast<uint8_t>(Kind));
}

/// Checks magic + version; returns false with \p Err on mismatch.
bool readHeader(WireReader &R, uint8_t &Type, uint8_t &Kind,
                std::string &Err) {
  uint32_t Magic = R.u32();
  uint16_t Version = R.u16();
  Type = R.u8();
  Kind = R.u8();
  if (!R.ok()) {
    Err = "truncated frame header";
    return false;
  }
  if (Magic != EvalWireMagic) {
    Err = "bad frame magic";
    return false;
  }
  if (Version != EvalWireVersion) {
    Err = "unsupported protocol version " + std::to_string(Version);
    return false;
  }
  return true;
}

void writeStrVec(WireWriter &W, const std::vector<std::string> &V) {
  W.vec(V, [&](const std::string &S) { W.str(S); });
}

bool readStrVec(WireReader &R, std::vector<std::string> &V) {
  uint32_t N = R.count();
  V.resize(N);
  for (uint32_t I = 0; I != N && R.ok(); ++I)
    V[I] = R.str();
  return R.ok();
}

/// Wire bytes are cast straight to enums, so one that names no
/// enumerator would run a configuration nobody asked for (mode 0xff
/// obfuscates nothing) under a cache key no valid request shares. Each
/// enum is bounded by its last enumerator; the codegen byte uses bits
/// 0-5 only: five knobs plus the compiler style.
bool checkFieldRanges(const EvalRequest &Req, std::string &Err) {
  auto Bad = [&Err](const char *Field, unsigned Byte) {
    Err = std::string(Field) + " byte " + std::to_string(Byte) +
          " out of range";
    return false;
  };
  bool Cell = Req.Kind == EvalWireKind::Overhead ||
              Req.Kind == EvalWireKind::DiffTask;
  if (Cell && Req.Mode > ObfuscationMode::SplitBB)
    return Bad("Mode", static_cast<unsigned>(Req.Mode));
  if (Req.Kind == EvalWireKind::DiffTask) {
    if (Req.BaselineLevel > static_cast<uint8_t>(OptLevel::O3))
      return Bad("BaselineLevel", Req.BaselineLevel);
    if (Req.BaselineCodegen >> 6)
      return Bad("BaselineCodegen", Req.BaselineCodegen);
  }
  if (Req.Kind == EvalWireKind::FuzzBatch &&
      Req.FuzzEngine > static_cast<uint8_t>(VMEngine::Precompiled))
    return Bad("FuzzEngine", Req.FuzzEngine);
  return true;
}

} // namespace

std::vector<uint8_t> khaos::encodeEvalRequest(const EvalRequest &Req) {
  WireWriter W;
  writeHeader(W, EvalWireType::Request, Req.Kind);
  switch (Req.Kind) {
  case EvalWireKind::Ping:
    break;
  case EvalWireKind::Overhead:
    W.str(Req.WorkloadName);
    W.str(Req.WorkloadSource);
    W.u8(static_cast<uint8_t>(Req.Mode));
    W.u64(Req.Seed);
    break;
  case EvalWireKind::DiffTask:
    W.str(Req.WorkloadName);
    W.str(Req.WorkloadSource);
    writeStrVec(W, Req.VulnFunctions);
    W.u8(static_cast<uint8_t>(Req.Mode));
    W.u64(Req.Seed);
    W.str(Req.Tool);
    W.u8(Req.BaselineLevel);
    W.u8(Req.BaselineCodegen);
    break;
  case EvalWireKind::FuzzBatch:
    W.u64(Req.FuzzSeed);
    W.u32(Req.FuzzBudget);
    W.u8(Req.FuzzEngine);
    W.u8(Req.FuzzCrossVM);
    W.u8(Req.FuzzVerbose);
    break;
  }
  return std::move(W.Buf);
}

bool khaos::decodeEvalRequest(const std::vector<uint8_t> &Payload,
                              EvalRequest &Req, std::string &Err) {
  WireReader R(Payload.data(), Payload.size());
  uint8_t Type = 0, Kind = 0;
  if (!readHeader(R, Type, Kind, Err))
    return false;
  if (Type != static_cast<uint8_t>(EvalWireType::Request)) {
    Err = "expected a request frame";
    return false;
  }
  Req.Kind = static_cast<EvalWireKind>(Kind);
  switch (Req.Kind) {
  case EvalWireKind::Ping:
    break;
  case EvalWireKind::Overhead:
    Req.WorkloadName = R.str();
    Req.WorkloadSource = R.str();
    Req.Mode = static_cast<ObfuscationMode>(R.u8());
    Req.Seed = R.u64();
    break;
  case EvalWireKind::DiffTask:
    Req.WorkloadName = R.str();
    Req.WorkloadSource = R.str();
    readStrVec(R, Req.VulnFunctions);
    Req.Mode = static_cast<ObfuscationMode>(R.u8());
    Req.Seed = R.u64();
    Req.Tool = R.str();
    Req.BaselineLevel = R.u8();
    Req.BaselineCodegen = R.u8();
    break;
  case EvalWireKind::FuzzBatch:
    Req.FuzzSeed = R.u64();
    Req.FuzzBudget = R.u32();
    Req.FuzzEngine = R.u8();
    Req.FuzzCrossVM = R.u8();
    Req.FuzzVerbose = R.u8();
    break;
  default:
    Err = "unknown request kind " + std::to_string(Kind);
    return false;
  }
  if (!R.ok()) {
    Err = "truncated request body";
    return false;
  }
  if (!R.atEnd()) {
    Err = "trailing bytes after request body";
    return false;
  }
  return checkFieldRanges(Req, Err);
}

std::vector<uint8_t> khaos::encodeEvalResponse(const EvalResponse &Resp) {
  WireWriter W;
  if (!Resp.Ok) {
    writeHeader(W, EvalWireType::ResponseError, Resp.Kind);
    W.str(Resp.Error);
    return std::move(W.Buf);
  }
  writeHeader(W, EvalWireType::ResponseOk, Resp.Kind);
  switch (Resp.Kind) {
  case EvalWireKind::Ping:
    W.u8(Resp.Engine);
    W.u8(Resp.CacheEnabled);
    W.u8(Resp.HasDiskTier);
    W.u8(Resp.BaselineLevel);
    W.u8(Resp.BaselineCodegen);
    break;
  case EvalWireKind::Overhead:
    W.u8(Resp.Measured);
    W.f64(Resp.Percent);
    break;
  case EvalWireKind::DiffTask:
    W.u8(Resp.ImagesOk);
    W.u8(Resp.ToolOk);
    W.str(Resp.ToolError);
    W.f64(Resp.Precision);
    W.f64(Resp.Similarity);
    W.vec(Resp.VulnRanks, [&](uint32_t V) { W.u32(V); });
    break;
  case EvalWireKind::FuzzBatch:
    W.u32(Resp.Cases);
    W.u32(Resp.Cells);
    W.u32(Resp.Passes);
    W.u32(Resp.BaselineErrors);
    W.u32(Resp.DivergenceCount);
    W.str(Resp.Text);
    break;
  }
  return std::move(W.Buf);
}

bool khaos::decodeEvalResponse(const std::vector<uint8_t> &Payload,
                               EvalResponse &Resp, std::string &Err) {
  WireReader R(Payload.data(), Payload.size());
  uint8_t Type = 0, Kind = 0;
  if (!readHeader(R, Type, Kind, Err))
    return false;
  Resp.Kind = static_cast<EvalWireKind>(Kind);
  if (Type == static_cast<uint8_t>(EvalWireType::ResponseError)) {
    Resp.Ok = false;
    Resp.Error = R.str();
    if (!R.ok() || !R.atEnd()) {
      Err = "malformed error response";
      return false;
    }
    return true;
  }
  if (Type != static_cast<uint8_t>(EvalWireType::ResponseOk)) {
    Err = "expected a response frame";
    return false;
  }
  Resp.Ok = true;
  switch (Resp.Kind) {
  case EvalWireKind::Ping:
    Resp.Engine = R.u8();
    Resp.CacheEnabled = R.u8();
    Resp.HasDiskTier = R.u8();
    Resp.BaselineLevel = R.u8();
    Resp.BaselineCodegen = R.u8();
    break;
  case EvalWireKind::Overhead:
    Resp.Measured = R.u8();
    Resp.Percent = R.f64();
    break;
  case EvalWireKind::DiffTask: {
    Resp.ImagesOk = R.u8();
    Resp.ToolOk = R.u8();
    Resp.ToolError = R.str();
    Resp.Precision = R.f64();
    Resp.Similarity = R.f64();
    uint32_t N = R.count();
    Resp.VulnRanks.resize(N);
    for (uint32_t I = 0; I != N && R.ok(); ++I)
      Resp.VulnRanks[I] = R.u32();
    break;
  }
  case EvalWireKind::FuzzBatch:
    Resp.Cases = R.u32();
    Resp.Cells = R.u32();
    Resp.Passes = R.u32();
    Resp.BaselineErrors = R.u32();
    Resp.DivergenceCount = R.u32();
    Resp.Text = R.str();
    break;
  default:
    Err = "unknown response kind " + std::to_string(Kind);
    return false;
  }
  if (!R.ok()) {
    Err = "truncated response body";
    return false;
  }
  if (!R.atEnd()) {
    Err = "trailing bytes after response body";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Client.
//===----------------------------------------------------------------------===//

EvalClient::~EvalClient() { close(); }

bool EvalClient::connect(const std::string &SocketPath, std::string &Err) {
  ignoreSigpipeOnce();
  close();
  if (SocketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
    Err = "socket path too long";
    return false;
  }
  int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  if (::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "connect " + SocketPath + ": " + std::strerror(errno);
    ::close(S);
    return false;
  }
  Fd = S;
  return true;
}

void EvalClient::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool EvalClient::call(const EvalRequest &Req, EvalResponse &Resp,
                      std::string &Err) {
  if (Fd < 0) {
    Err = "not connected";
    return false;
  }
  std::vector<uint8_t> Payload = encodeEvalRequest(Req);
  FrameIOResult W = writeDiffFrame(Fd, Payload, /*TimeoutMs=*/-1, Err);
  if (W != FrameIOResult::Ok) {
    if (Err.empty())
      Err = std::string("send failed: ") + frameIOResultName(W);
    return false;
  }
  std::vector<uint8_t> RespPayload;
  FrameIOResult R = readDiffFrame(Fd, RespPayload, /*TimeoutMs=*/-1, Err);
  if (R != FrameIOResult::Ok) {
    if (Err.empty())
      Err = std::string("receive failed: ") + frameIOResultName(R);
    return false;
  }
  return decodeEvalResponse(RespPayload, Resp, Err);
}

//===----------------------------------------------------------------------===//
// Server.
//===----------------------------------------------------------------------===//

EvalServer::EvalServer(Config C)
    : Cfg(std::move(C)), Pipe(Cfg.Pipeline) {}

EvalServer::~EvalServer() { stop(); }

bool EvalServer::start(std::string &Err) {
  ignoreSigpipeOnce();
  if (Cfg.SocketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
    Err = "socket path too long";
    return false;
  }
  int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // A previous daemon's socket file would make bind fail; the path is
  // ours by contract, so replace it.
  ::unlink(Cfg.SocketPath.c_str());
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Cfg.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  if (::bind(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "bind " + Cfg.SocketPath + ": " + std::strerror(errno);
    ::close(S);
    return false;
  }
  if (::listen(S, 64) != 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    ::close(S);
    ::unlink(Cfg.SocketPath.c_str());
    return false;
  }
  ListenFd = S;
  Stopping.store(false);
  Acceptor = std::thread([this, S] { acceptLoop(S); });
  return true;
}

void EvalServer::stop() {
  if (ListenFd < 0)
    return;
  Stopping.store(true);
  // Shutting the listen socket down pops the acceptor out of accept(); it
  // is closed only after the acceptor has exited, so the acceptor never
  // races this thread for ListenFd or accepts on a recycled descriptor.
  // Shutting the connection sockets down pops every serving thread out
  // of its read.
  ::shutdown(ListenFd, SHUT_RDWR);
  if (Acceptor.joinable())
    Acceptor.join();
  ::close(ListenFd);
  ListenFd = -1;
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lock(ConnM);
    for (int Fd : ConnFds)
      ::shutdown(Fd, SHUT_RDWR);
    Threads.swap(ConnThreads);
  }
  for (std::thread &T : Threads)
    T.join();
  {
    std::lock_guard<std::mutex> Lock(ConnM);
    for (int Fd : ConnFds)
      ::close(Fd);
    ConnFds.clear();
  }
  ::unlink(Cfg.SocketPath.c_str());
}

void EvalServer::acceptLoop(int Fd) {
  for (;;) {
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR)
        continue;
      return; // stop() shut the listen socket down (or it failed hard).
    }
    if (Stopping.load()) {
      ::close(Conn);
      return;
    }
    std::lock_guard<std::mutex> Lock(ConnM);
    ConnFds.push_back(Conn);
    ConnThreads.emplace_back([this, Conn] { serveConnection(Conn); });
  }
}

void EvalServer::serveConnection(int ConnFd) {
  for (;;) {
    std::vector<uint8_t> Payload;
    std::string Err;
    FrameIOResult R = readDiffFrame(ConnFd, Payload, /*TimeoutMs=*/-1, Err);
    if (R != FrameIOResult::Ok)
      return; // Client closed (Eof), stop() shut us down, or desync.

    EvalRequest Req;
    EvalResponse Resp;
    if (!decodeEvalRequest(Payload, Req, Err)) {
      Resp.Ok = false;
      Resp.Error = "malformed request: " + Err;
    } else {
      Resp = handle(Req);
    }
    Served.fetch_add(1);
    std::vector<uint8_t> Out = encodeEvalResponse(Resp);
    if (writeDiffFrame(ConnFd, Out, /*TimeoutMs=*/-1, Err) !=
        FrameIOResult::Ok)
      return;
  }
}

EvalResponse EvalServer::handle(const EvalRequest &Req) {
  EvalResponse Resp;
  Resp.Kind = Req.Kind;
  try {
    switch (Req.Kind) {
    case EvalWireKind::Ping: {
      Resp.Ok = true;
      Resp.Engine = static_cast<uint8_t>(Pipe.config().Engine);
      Resp.CacheEnabled = Pipe.config().CacheEnabled ? 1 : 0;
      Resp.HasDiskTier = Pipe.config().CacheDir.empty() ? 0 : 1;
      Resp.BaselineLevel =
          static_cast<uint8_t>(Pipe.config().Baseline.Level);
      Resp.BaselineCodegen = Pipe.config().Baseline.packedCodegen();
      return Resp;
    }
    case EvalWireKind::Overhead: {
      Workload W;
      W.Name = Req.WorkloadName;
      W.Source = Req.WorkloadSource;
      double Pct = 0.0;
      bool Ok = Pipe.overheadPercent(W, Req.Mode, Pct, Req.Seed);
      Resp.Ok = true;
      Resp.Measured = Ok ? 1 : 0;
      Resp.Percent = Ok ? Pct : 0.0;
      return Resp;
    }
    case EvalWireKind::DiffTask: {
      if (!Req.Tool.empty() && !isDiffToolRegistered(Req.Tool)) {
        // Protocol-level: the client validates against the same registry
        // before sending, so a mismatch means version skew, and silently
        // rendering an all-n/a row would hide it.
        Resp.Ok = false;
        Resp.Error = "unknown diffing tool '" + Req.Tool + "'";
        return Resp;
      }
      Workload W;
      W.Name = Req.WorkloadName;
      W.Source = Req.WorkloadSource;
      W.VulnFunctions = Req.VulnFunctions;
      // The request carries its cell's baseline build config explicitly,
      // so one daemon serves a confound sweep over many configs; the
      // artifact keys never alias across configs.
      BuildConfig BC;
      BC.Level = static_cast<OptLevel>(Req.BaselineLevel);
      BC.Codegen = BuildConfig::unpackCodegen(Req.BaselineCodegen);
      EvalPipeline::DiffTaskResult R =
          Pipe.diffTask(W, BC, Req.Mode, Req.Seed, Req.Tool);
      Resp.Ok = true;
      Resp.ImagesOk = R.ImagesOk ? 1 : 0;
      Resp.ToolOk = R.ToolOk ? 1 : 0;
      Resp.ToolError = std::move(R.ToolError);
      Resp.Precision = R.Precision;
      Resp.Similarity = R.Similarity;
      Resp.VulnRanks = std::move(R.VulnRanks);
      return Resp;
    }
    case EvalWireKind::FuzzBatch: {
      std::ostringstream Text;
      DifferentialFuzzer::Config FC;
      FC.Seed = Req.FuzzSeed;
      FC.Budget = Req.FuzzBudget;
      FC.Engine = static_cast<VMEngine>(Req.FuzzEngine);
      FC.CrossVM = Req.FuzzCrossVM != 0;
      FC.Verbose = Req.FuzzVerbose != 0;
      FC.Out = &Text;
      DifferentialFuzzer Fuzzer(FC);
      FuzzReport Report = Fuzzer.run();
      Resp.Ok = true;
      Resp.Cases = Report.Cases;
      Resp.Cells = Report.Cells;
      Resp.Passes = Report.Passes;
      Resp.BaselineErrors = Report.BaselineErrors;
      Resp.DivergenceCount =
          static_cast<uint32_t>(Report.Divergences.size());
      Resp.Text = Text.str();
      return Resp;
    }
    }
    Resp.Ok = false;
    Resp.Error =
        "unsupported request kind " +
        std::to_string(static_cast<unsigned>(Req.Kind));
  } catch (const std::exception &E) {
    // No request may take the daemon down; the failure travels back to
    // the one client that asked.
    Resp.Ok = false;
    Resp.Error = std::string("server exception: ") + E.what();
  }
  return Resp;
}
