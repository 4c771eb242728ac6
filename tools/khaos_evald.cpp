//===- tools/khaos_evald.cpp - Long-lived eval/diff daemon ------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The khaos-evald front-end: binds an EvalServer on a Unix-domain socket
/// and serves overhead and diff-task requests from many concurrent clients
/// against ONE shared warm EvalPipeline — compiles, images and diff
/// outcomes are paid once per daemon (and, with --cache-dir, once per
/// machine) instead of once per bench process.
///
///   khaos-evald --socket PATH [--vm reference|precompiled] [--no-cache]
///               [--store-max-bytes B] [--cache-dir DIR]
///               [--disk-max-bytes B] [--tool-timeout-ms T]
///               [--baseline-opt LEVEL] [--codegen T[,T...]]
///               [--compiler-style clang|gcc]
///
/// Clients are the overhead and diffing matrix benches run with
/// `--connect PATH`; their stdout is byte-identical to in-process runs
/// (the client refuses a daemon whose engine/cache or baseline build
/// configuration differs from its own — a client wanting O0 cells against
/// a daemon warmed at O2 aborts loudly instead of comparing incomparable
/// results).
///
/// Lifecycle: prints one "[khaos-evald] listening on PATH" line to stderr
/// once ready (scripts wait for it), then serves until SIGINT/SIGTERM,
/// which drains cleanly: stop accepting, close every connection, join all
/// threads, unlink the socket. Exit status: 0 on a signalled shutdown,
/// 1 when the socket cannot be bound, 2 on a usage error (an unknown flag
/// among them); `--help` prints the flag table.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "harness/EvalService.h"

#include <csignal>
#include <cstdio>

#include <unistd.h>

using namespace khaos;

namespace {

volatile std::sig_atomic_t SignalSeen = 0;

void onSignal(int) { SignalSeen = 1; }

} // namespace

int main(int argc, char **argv) {
  // The daemon takes --socket plus the shared pipeline rows; the scheduler
  // rows (--threads, --seed, --shards, --shard-index, --connect) belong to
  // its clients.
  EvalScheduler::Config Sched;
  BuildFlagValues Build;
  std::string SocketPath;
  std::vector<BenchFlagSpec> Specs = {
      {"--socket", "PATH", "Unix-domain socket to bind (required)",
       [&SocketPath](const char *V) { SocketPath = V; }}};
  for (BenchFlagSpec &S : pipelineFlagSpecs(Sched, "khaos-evald", Build))
    Specs.push_back(std::move(S));
  const char *Synopsis = "--socket PATH [flags]";
  parseBenchFlags(argc, argv, Specs, Synopsis);
  if (SocketPath.empty()) {
    std::fprintf(stderr, "khaos-evald: --socket PATH is required\n");
    exitWithUsage(2, "khaos-evald", Synopsis, Specs);
  }
  resolveBaselineFlags(Sched, "khaos-evald", Build, nullptr, nullptr);

  EvalServer Server(EvalServer::Config{SocketPath, Sched.pipelineConfig()});
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "khaos-evald: %s\n", Err.c_str());
    return 1;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // EvalServer::start already installed SIG_IGN for SIGPIPE, but the
  // daemon's survival must not hinge on a library detail: a client that
  // disconnects while its response frame is in flight turns the write
  // into EPIPE, and the default SIGPIPE disposition would kill us.
  std::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr,
               "[khaos-evald] listening on %s engine=%s cache=%s disk=%s "
               "baseline=%s\n",
               SocketPath.c_str(), vmEngineName(Sched.Engine),
               Sched.CacheEnabled ? "on" : "off",
               Sched.CacheDir.empty() ? "(none)" : Sched.CacheDir.c_str(),
               Sched.Baseline.name().c_str());

  while (!SignalSeen)
    ::pause();

  std::fprintf(stderr, "[khaos-evald] shutting down (%llu requests served)\n",
               static_cast<unsigned long long>(Server.requestsServed()));
  Server.stop();
  return 0;
}
