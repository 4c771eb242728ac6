//===- harness/EvalService.cpp - Long-lived eval/diff service -------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/EvalService.h"

#include "diffing/DiffWorkerProtocol.h"

#include <cerrno>
#include <csignal>
#include <cstring>

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

constexpr WireProtocol KEV1{EvalWireMagic, EvalWireVersion,
                            /*HasKind=*/true};

/// The request body: one layout per kind. False for a kind byte that
/// names no EvalWireKind.
template <typename IO, typename Request>
bool requestLayout(IO &X, Request &Req) {
  switch (Req.Kind) {
  case EvalWireKind::Ping:
    return true;
  case EvalWireKind::Overhead:
    X.str(Req.W.Name);
    X.str(Req.W.Source);
    X.u8(Req.Mode);
    X.u64(Req.Seed);
    return true;
  case EvalWireKind::DiffTask:
    X.str(Req.W.Name);
    X.str(Req.W.Source);
    X.seq(Req.W.VulnFunctions, [&](auto &Name) { X.str(Name); });
    X.u8(Req.Mode);
    X.u64(Req.Seed);
    X.str(Req.Tool);
    X.u8(Req.BaselineLevel);
    X.u8(Req.BaselineCodegen);
    return true;
  }
  return false;
}

/// The ok-response body: one layout per kind, false for an unknown one.
template <typename IO, typename Response>
bool responseLayout(IO &X, Response &Resp) {
  switch (Resp.Kind) {
  case EvalWireKind::Ping:
    X.u8(Resp.Engine);
    X.u8(Resp.CacheEnabled);
    X.u8(Resp.HasDiskTier);
    X.u8(Resp.BaselineLevel);
    X.u8(Resp.BaselineCodegen);
    return true;
  case EvalWireKind::Overhead:
    X.u8(Resp.Measured);
    X.f64(Resp.Percent);
    return true;
  case EvalWireKind::DiffTask:
    X.u8(Resp.Diff.ImagesOk);
    X.u8(Resp.Diff.ToolOk);
    X.str(Resp.Diff.ToolError);
    X.f64(Resp.Diff.Precision);
    X.f64(Resp.Diff.Similarity);
    X.seq(Resp.Diff.VulnRanks, [&](auto &Rank) { X.u32(Rank); });
    return true;
  }
  return false;
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
  return true;
}

} // namespace

std::vector<uint8_t> khaos::encodeEvalRequest(const EvalRequest &Req) {
  WireWriter W = beginFrame(KEV1, WireFrameType::Request,
                            static_cast<uint8_t>(Req.Kind));
  requestLayout(W, Req);
  return std::move(W.Buf);
}

bool khaos::decodeEvalRequest(const std::vector<uint8_t> &Payload,
                              EvalRequest &Req, std::string &Err) {
  WireReader R(Payload);
  uint8_t Kind = 0;
  if (!openRequest(R, KEV1, Err, &Kind))
    return false;
  Req.Kind = static_cast<EvalWireKind>(Kind);
  if (!requestLayout(R, Req)) {
    Err = "unknown request kind " + std::to_string(Kind);
    return false;
  }
  return closeBody(R, "request", Err) && checkFieldRanges(Req, Err);
}

std::vector<uint8_t> khaos::encodeEvalResponse(const EvalResponse &Resp) {
  WireWriter W = beginResponse(KEV1, Resp.Ok, Resp.Error,
                               static_cast<uint8_t>(Resp.Kind));
  if (Resp.Ok)
    responseLayout(W, Resp);
  return std::move(W.Buf);
}

bool khaos::decodeEvalResponse(const std::vector<uint8_t> &Payload,
                               EvalResponse &Resp, std::string &Err) {
  WireReader R(Payload);
  uint8_t Kind = 0;
  if (!openResponse(R, KEV1, Resp.Ok, Resp.Error, Err, &Kind))
    return false;
  Resp.Kind = static_cast<EvalWireKind>(Kind);
  if (!Resp.Ok)
    return true;
  if (!responseLayout(R, Resp)) {
    Err = "unknown response kind " + std::to_string(Kind);
    return false;
  }
  return closeBody(R, "response", Err);
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
      double Pct = 0.0;
      bool Ok = Pipe.overheadPercent(Req.W, Req.Mode, Pct, Req.Seed);
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
      // The request carries its cell's baseline build config explicitly,
      // so one daemon serves a confound sweep over many configs; the
      // artifact keys never alias across configs.
      BuildConfig BC;
      BC.Level = static_cast<OptLevel>(Req.BaselineLevel);
      BC.Codegen = BuildConfig::unpackCodegen(Req.BaselineCodegen);
      Resp.Ok = true;
      Resp.Diff = Pipe.diffTask(Req.W, BC, Req.Mode, Req.Seed, Req.Tool);
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
