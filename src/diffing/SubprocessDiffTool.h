//===- diffing/SubprocessDiffTool.h - Out-of-process backends ---*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Out-of-process diffing backends. Real-world counterparts of the matrix
/// tools are external programs and learned models (a jTrans-style
/// transformer cannot run in-process); this adapter runs any binary that
/// speaks the DiffWorkerProtocol as a registry tool:
///
///   * registerSubprocessDiffTool() registers a DiffTool whose diff()
///     performs one request/response round trip against a pooled worker
///     process,
///   * workers are spawned lazily, reused across calls (and across tool
///     instances — the pool is keyed by the worker command line), killed
///     and respawned on failure,
///   * every round trip runs under a per-backend timeout: a hung worker
///     is SIGKILLed and the call throws DiffToolError — it never stalls a
///     shard; a crashed worker (EOF) is respawned and the request retried
///     once,
///   * a response that does not decode, or whose rankings do not fit the
///     image pair (a row count other than A's function count, an index
///     past B's functions), kills the worker and throws DiffToolError —
///     the metrics would otherwise index B's functions out of bounds,
///   * the `khaos-diff-worker` executable (tools/) serves the in-process
///     registry tools over the protocol, which is what the pre-registered
///     `safe-oop` backend runs — proving the adapter end-to-end with
///     bit-identical results to the in-process "SAFE" tool.
///
/// Spawning installs SIG_IGN for SIGPIPE process-wide (a dead worker's
/// pipe must surface as an error return, not kill the harness).
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_DIFFING_SUBPROCESSDIFFTOOL_H
#define KHAOS_DIFFING_SUBPROCESSDIFFTOOL_H

#include "diffing/DiffTool.h"

#include <cstdint>
#include <string>
#include <vector>

namespace khaos {

/// Description of one subprocess-backed tool.
struct SubprocessToolSpec {
  /// Registry name (what --tools and precisionMatrix address).
  std::string Name;
  /// Tool name placed in the request frame. A khaos-diff-worker serves
  /// the in-process registry under these names; an external model binary
  /// is free to ignore the field.
  std::string RemoteTool;
  /// argv of the worker. Empty = the bundled khaos-diff-worker (next to
  /// the running executable, overridable via $KHAOS_DIFF_WORKER) invoked
  /// as `khaos-diff-worker --tool <RemoteTool>`.
  std::vector<std::string> Command;
  /// Static Table-1 traits reported without consulting the worker
  /// (trait queries must not spawn processes).
  ToolTraits Traits;
  /// Per-backend round-trip timeout; 0 = the global default
  /// (setDiffWorkerTimeoutMs / --tool-timeout-ms).
  unsigned TimeoutMs = 0;
};

/// Registers \p Spec as a registry tool (same contract as
/// registerDiffTool: false if the name is taken). Thread-safe.
bool registerSubprocessDiffTool(const SubprocessToolSpec &Spec);

/// True if \p Name is a subprocess-backed registry tool. The worker uses
/// this to refuse serving such a name (which would recurse into another
/// worker process).
bool isSubprocessDiffTool(const std::string &Name);

/// Global default round-trip timeout in ms (0 = wait forever). The
/// benches set it from --tool-timeout-ms. Default: 60000.
void setDiffWorkerTimeoutMs(unsigned Ms);

/// Path of the bundled worker executable: $KHAOS_DIFF_WORKER if set, else
/// `khaos-diff-worker` in the running executable's directory.
std::string defaultDiffWorkerPath();

/// Monotonic count of request frames sent to workers. The warm-cache
/// tests assert a re-run performs zero round trips.
uint64_t diffWorkerRoundTrips();

/// Kills and reaps every idle pooled worker (spawning stays possible —
/// the next diff() respawns on demand). Tests use this to force the
/// respawn path; benches need not call it.
void shutdownDiffWorkers();

/// Appends the built-in subprocess backends (currently `safe-oop`, the
/// out-of-process SAFE) to a registry seeding list. Called once by the
/// DiffTool registry while it seeds — that path must not call
/// registerDiffTool, which would re-enter the seeding guard.
void appendBuiltinSubprocessTools(
    std::vector<std::pair<std::string, DiffToolFactory>> &Tools);

} // namespace khaos

#endif // KHAOS_DIFFING_SUBPROCESSDIFFTOOL_H
