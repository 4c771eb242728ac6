//===- harness/EvalService.h - Long-lived eval/diff service -----*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The khaos-evald wire protocol and its server/client endpoints: a
/// long-lived daemon serves overhead and diff-task requests from many
/// concurrent clients against ONE shared warm EvalPipeline — the serving
/// shape where compiles, images and diff outcomes are paid once per
/// daemon (and, with a --cache-dir disk tier, once per machine) instead
/// of once per bench process.
///
/// Transport: the DiffWorkerProtocol length-prefixed frames
/// (readDiffFrame/writeDiffFrame) over a Unix-domain stream socket; each
/// connection carries a sequence of request→response round trips. Every
/// payload begins with a fixed header:
///
///   u32 magic   0x4B455631 ("KEV1" read as bytes 31 56 45 4B)
///   u16 version 3 (v2 added the baseline build config to DiffTask
///                  requests and Ping responses; v3 added the compiler
///                  style — bit 5 of the baseline codegen byte — so a v2
///                  peer, which would silently ignore the style and alias
///                  clang/gcc artifact keys, is rejected at the header)
///   u8  type    WireFrameType: 1 = request, 2 = response (ok),
///               3 = response (error)
///   u8  kind    EvalWireKind
///
/// Encodings use the diff-worker framing (WireProtocol, openRequest/
/// openResponse/closeBody) and its conventions — one layout function per
/// kind serving encoder and decoder alike, no optional fields, doubles as
/// raw IEEE-754 bit patterns. The bodies carry the pipeline's own records
/// (the cell's Workload in, an EvalPipeline::DiffTaskResult out), so a
/// bench running --connect produces byte-identical stdout to the same
/// bench running in-process (EvalServiceTest pins every kind's frames so
/// the format cannot drift silently).
///
/// Isolation: each connection is served by its own thread; diff tools
/// keep their per-request subprocess isolation (the SubprocessDiffTool
/// pool with its timeout → SIGKILL → error-artifact machinery), so one
/// hung worker fails one request without stalling the daemon's other
/// clients. A request that fails at the eval level (tool timeout, image
/// build failure) is a normal ok-response carrying the failure; an
/// error-response is reserved for protocol-level trouble (unknown tool,
/// malformed frame, unsupported kind).
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_HARNESS_EVALSERVICE_H
#define KHAOS_HARNESS_EVALSERVICE_H

#include "harness/Evaluator.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace khaos {

/// Protocol constants.
constexpr uint32_t EvalWireMagic = 0x4B455631; // "KEV1"
constexpr uint16_t EvalWireVersion = 3;

enum class EvalWireKind : uint8_t {
  /// Liveness + configuration probe: the response carries the daemon's
  /// cache/baseline configuration so clients can refuse a daemon whose
  /// results would not be byte-identical to their in-process run.
  Ping = 1,
  /// One overhead-matrix cell: run (workload, mode, seed) and report the
  /// runtime overhead percentage.
  Overhead = 2,
  /// One (cell × tool) task: build the cell's image pair, run one
  /// registry diff tool, report precision/similarity plus the search
  /// ranks of the workload's vulnerable functions. An empty tool name
  /// builds the images only (the probe the plane's ToolIdx-0 bookkeeping
  /// uses when no tools are requested).
  DiffTask = 3,
  // 4 is retired (a fuzz batch; khaos-fuzz runs its batches in-process)
  // and must never be reused: an old client's kind-4 frame has to keep
  // getting the "unknown request kind 4" error response rather than be
  // read as some newer kind.
};

/// One request, tagged by Kind; only the fields of that kind are
/// meaningful (all of them are always encoded for the active kind).
struct EvalRequest {
  EvalWireKind Kind = EvalWireKind::Ping;

  // Overhead + DiffTask: the cell. Both kinds send the workload's name
  // and source, DiffTask also its vulnerable functions (the rank
  // targets); VulnCVEs stay off the wire.
  Workload W;
  ObfuscationMode Mode = ObfuscationMode::None;
  uint64_t Seed = 0;
  std::string Tool; ///< DiffTask registry tool ("" = images only).
  /// DiffTask baseline build config (wire form): the A-side is built at
  /// this opt level + packed codegen knobs (bit 5 carries the compiler
  /// style since v3). Defaults mirror BuildConfig{} (O2, clang-like
  /// reference codegen) so pre-confound callers are unchanged.
  uint8_t BaselineLevel = 2;     ///< static_cast<uint8_t>(OptLevel::O2).
  uint8_t BaselineCodegen = 0x1e; ///< BuildConfig{}.packedCodegen().
};

/// One response, tagged with the request header's kind. Ok=false carries
/// only Error (protocol-level failure); Ok=true carries that kind's fields.
struct EvalResponse {
  EvalWireKind Kind = EvalWireKind::Ping;
  bool Ok = false;
  std::string Error;

  // Ping.
  uint8_t Engine = 0; ///< Always VMEngine::Precompiled (v3 layout).
  uint8_t CacheEnabled = 0;
  uint8_t HasDiskTier = 0;
  uint8_t BaselineLevel = 0;   ///< Daemon default baseline opt level.
  uint8_t BaselineCodegen = 0; ///< Daemon default packed codegen knobs.

  // Overhead.
  uint8_t Measured = 0; ///< overheadPercent() succeeded.
  double Percent = 0.0;

  // DiffTask: the daemon's EvalPipeline::diffTask result. Its Report
  // stays off the wire, so a remote result carries an empty one.
  EvalPipeline::DiffTaskResult Diff;
};

/// Payload builders/parsers (exposed so tests can pin golden frames).
std::vector<uint8_t> encodeEvalRequest(const EvalRequest &Req);
bool decodeEvalRequest(const std::vector<uint8_t> &Payload, EvalRequest &Req,
                       std::string &Err);
std::vector<uint8_t> encodeEvalResponse(const EvalResponse &Resp);
bool decodeEvalResponse(const std::vector<uint8_t> &Payload,
                        EvalResponse &Resp, std::string &Err);

/// Synchronous client for one daemon connection. Not thread-safe; use
/// one per thread (the EvalScheduler keeps a pool).
class EvalClient {
public:
  EvalClient() = default;
  ~EvalClient();
  EvalClient(const EvalClient &) = delete;
  EvalClient &operator=(const EvalClient &) = delete;

  /// Connects to the daemon's Unix socket.
  bool connect(const std::string &SocketPath, std::string &Err);
  void close();
  bool connected() const { return Fd >= 0; }

  /// One request→response round trip. False on transport/protocol
  /// failure (\p Err set); an application-level failure (tool timeout
  /// etc.) is an Ok response describing it.
  bool call(const EvalRequest &Req, EvalResponse &Resp, std::string &Err);

private:
  int Fd = -1;
};

/// The daemon: accepts connections on a Unix socket and serves each on
/// its own thread against one shared pipeline.
class EvalServer {
public:
  struct Config {
    std::string SocketPath;
    EvalPipeline::Config Pipeline;
  };

  explicit EvalServer(Config C);
  ~EvalServer();

  /// Binds + listens + starts the acceptor thread. False (with \p Err)
  /// when the socket cannot be bound.
  bool start(std::string &Err);

  /// Stops accepting, closes every connection and joins all threads.
  /// Idempotent; the destructor calls it.
  void stop();

  EvalPipeline &pipeline() { return Pipe; }
  const std::string &socketPath() const { return Cfg.SocketPath; }
  /// Requests served so far (telemetry/test hook).
  uint64_t requestsServed() const { return Served.load(); }

private:
  void acceptLoop(int Fd);
  void serveConnection(int ConnFd);
  EvalResponse handle(const EvalRequest &Req);

  Config Cfg;
  EvalPipeline Pipe;
  int ListenFd = -1;
  std::atomic<bool> Stopping{false};
  std::atomic<uint64_t> Served{0};
  std::thread Acceptor;
  std::mutex ConnM;
  std::vector<std::thread> ConnThreads;
  std::vector<int> ConnFds;
};

} // namespace khaos

#endif // KHAOS_HARNESS_EVALSERVICE_H
