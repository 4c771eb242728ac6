//===- diffing/SubprocessDiffTool.cpp - Out-of-process backends -----------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "diffing/SubprocessDiffTool.h"

#include "diffing/DiffWorkerProtocol.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace khaos;

namespace {

std::atomic<unsigned> GlobalTimeoutMs{60000};
std::atomic<uint64_t> RoundTrips{0};

/// Names registered through registerSubprocessDiffTool, so the worker can
/// refuse to recurse into them.
struct SubprocessNames {
  std::mutex M;
  std::set<std::string> Names;
};
SubprocessNames &subprocessNames() {
  static SubprocessNames N;
  return N;
}

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

struct Worker {
  pid_t Pid = -1;
  int WriteFd = -1; ///< Our end of the worker's stdin.
  int ReadFd = -1;  ///< Our end of the worker's stdout.
};

/// Process-wide pool of idle workers, keyed by the exact command line.
/// diff() checks a worker out for the duration of one round trip, so one
/// worker never serves two requests at once; concurrent (cell × tool)
/// tasks each get their own process.
class WorkerPool {
public:
  static WorkerPool &instance() {
    static WorkerPool P;
    return P;
  }

  /// \p ForceSpawn bypasses the idle pool: the crash-retry path must get
  /// a provably fresh process, not another pooled worker that may have
  /// died the same way (OOM kill, external kill).
  bool acquire(const std::vector<std::string> &Argv, Worker &Out,
               std::string &Err, bool ForceSpawn = false) {
    if (!ForceSpawn) {
      std::string Key = joinKey(Argv);
      std::lock_guard<std::mutex> Lock(M);
      auto It = Idle.find(Key);
      if (It != Idle.end() && !It->second.empty()) {
        Out = It->second.back();
        It->second.pop_back();
        return true;
      }
    }
    return spawn(Argv, Out, Err);
  }

  void release(const std::vector<std::string> &Argv, Worker W) {
    std::lock_guard<std::mutex> Lock(M);
    Idle[joinKey(Argv)].push_back(W);
  }

  /// SIGKILLs and reaps \p W (safe to call for an already-dead worker).
  static void destroy(Worker &W) {
    if (W.Pid > 0) {
      ::kill(W.Pid, SIGKILL);
      int Status = 0;
      while (::waitpid(W.Pid, &Status, 0) < 0 && errno == EINTR) {
      }
    }
    if (W.WriteFd >= 0)
      ::close(W.WriteFd);
    if (W.ReadFd >= 0)
      ::close(W.ReadFd);
    W = Worker{};
  }

  void shutdownIdle() {
    std::map<std::string, std::vector<Worker>> Doomed;
    {
      std::lock_guard<std::mutex> Lock(M);
      Doomed.swap(Idle);
    }
    for (auto &Entry : Doomed)
      for (Worker &W : Entry.second)
        destroy(W);
  }

  ~WorkerPool() { shutdownIdle(); }

private:
  WorkerPool() {
    // A worker dying mid-write must surface as EPIPE, not kill the
    // harness with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
  }

  static std::string joinKey(const std::vector<std::string> &Argv) {
    std::string Key;
    for (const std::string &A : Argv) {
      Key += A;
      Key.push_back('\0');
    }
    return Key;
  }

  bool spawn(const std::vector<std::string> &Argv, Worker &Out,
             std::string &Err) {
    int ToChild[2] = {-1, -1};
    int FromChild[2] = {-1, -1};
    if (::pipe(ToChild) != 0 || ::pipe(FromChild) != 0) {
      Err = std::string("pipe: ") + std::strerror(errno);
      for (int Fd : {ToChild[0], ToChild[1], FromChild[0], FromChild[1]})
        if (Fd >= 0)
          ::close(Fd);
      return false;
    }

    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, ToChild[0], 0);
    posix_spawn_file_actions_adddup2(&Actions, FromChild[1], 1);
    // Close every pipe end in the child beyond the dup2'ed stdio; a
    // child holding our read/write ends would keep pipes open past a
    // sibling worker's death and mask its EOF.
    for (int Fd : {ToChild[0], ToChild[1], FromChild[0], FromChild[1]})
      posix_spawn_file_actions_addclose(&Actions, Fd);

    std::vector<char *> CArgv;
    CArgv.reserve(Argv.size() + 1);
    for (const std::string &A : Argv)
      CArgv.push_back(const_cast<char *>(A.c_str()));
    CArgv.push_back(nullptr);

    pid_t Pid = -1;
    int Rc = ::posix_spawn(&Pid, CArgv[0], &Actions, nullptr, CArgv.data(),
                           environ);
    posix_spawn_file_actions_destroy(&Actions);
    ::close(ToChild[0]);
    ::close(FromChild[1]);
    if (Rc != 0) {
      ::close(ToChild[1]);
      ::close(FromChild[0]);
      Err = "failed to spawn '" + Argv[0] + "': " + std::strerror(Rc);
      return false;
    }
    // Our pipe ends go non-blocking so the frame transport's deadline
    // stays in charge: a blocking write of a >PIPE_BUF frame into a full
    // pipe (hung worker not draining) would otherwise block inside the
    // syscall past any poll() timeout. The child's stdio stays blocking.
    ::fcntl(ToChild[1], F_SETFL, O_NONBLOCK);
    ::fcntl(FromChild[0], F_SETFL, O_NONBLOCK);
    Out.Pid = Pid;
    Out.WriteFd = ToChild[1];
    Out.ReadFd = FromChild[0];
    return true;
  }

  std::mutex M;
  std::map<std::string, std::vector<Worker>> Idle;
};

//===----------------------------------------------------------------------===//
// The adapter tool
//===----------------------------------------------------------------------===//

/// A worker's rankings must have one row per A function and index only
/// B's functions: the metrics index B.Functions with them unchecked, so a
/// worker answering out of range would crash the harness.
bool rankingsFit(const DiffResult &R, size_t NA, size_t NB, std::string &Err) {
  if (R.Rankings.size() != NA) {
    Err = std::to_string(R.Rankings.size()) + " ranking rows for " +
          std::to_string(NA) + " A functions";
    return false;
  }
  for (size_t Row = 0; Row != NA; ++Row)
    for (uint32_t J : R.Rankings[Row])
      if (J >= NB) {
        Err = "row " + std::to_string(Row) + " ranks index " +
              std::to_string(J) + ", B has " + std::to_string(NB) +
              " functions";
        return false;
      }
  return true;
}

class SubprocessDiffTool : public DiffTool {
public:
  explicit SubprocessDiffTool(SubprocessToolSpec Spec)
      : Spec(std::move(Spec)) {}

  const char *getName() const override { return Spec.Name.c_str(); }
  ToolTraits getTraits() const override { return Spec.Traits; }

  DiffResult diff(const BinaryImage &A, const ImageFeatures &FA,
                  const BinaryImage &B,
                  const ImageFeatures &FB) const override {
    DiffWireRequest Req;
    Req.Tool = Spec.RemoteTool.empty() ? Spec.Name : Spec.RemoteTool;
    Req.A = A;
    Req.FA = FA;
    Req.B = B;
    Req.FB = FB;
    std::vector<uint8_t> Payload = encodeDiffRequest(Req);

    std::vector<std::string> Argv = workerArgv();
    unsigned TimeoutMs = Spec.TimeoutMs ? Spec.TimeoutMs
                                        : GlobalTimeoutMs.load();
    int Deadline = TimeoutMs == 0 ? -1 : static_cast<int>(TimeoutMs);

    // A crashed worker (EOF) is respawned and the request retried once —
    // the retry bypasses the idle pool, so it always gets a fresh
    // process. A timeout is not retried: a deterministic hang would just
    // double the stall, and the task must fail loudly instead.
    std::string LastErr;
    for (int Attempt = 0; Attempt != 2; ++Attempt) {
      Worker W;
      std::string Err;
      if (!WorkerPool::instance().acquire(Argv, W, Err,
                                          /*ForceSpawn=*/Attempt != 0))
        throw DiffToolError(describe("spawn failed", Err));

      RoundTrips.fetch_add(1, std::memory_order_relaxed);
      // One deadline spans the whole round trip: the read gets whatever
      // the write left of the budget, so TimeoutMs caps the request, not
      // each direction separately.
      auto Start = std::chrono::steady_clock::now();
      FrameIOResult IO = writeDiffFrame(W.WriteFd, Payload, Deadline, Err);
      std::vector<uint8_t> RespBytes;
      if (IO == FrameIOResult::Ok) {
        int ReadBudget = Deadline;
        if (Deadline >= 0) {
          auto Spent =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
          ReadBudget = Spent >= Deadline
                           ? 0
                           : Deadline - static_cast<int>(Spent);
        }
        IO = readDiffFrame(W.ReadFd, RespBytes, ReadBudget, Err);
      }

      if (IO == FrameIOResult::Timeout) {
        WorkerPool::destroy(W);
        throw DiffToolError(describe(
            "worker timed out after " + std::to_string(TimeoutMs) + " ms",
            Err));
      }
      if (IO == FrameIOResult::Eof) {
        WorkerPool::destroy(W);
        LastErr = describe("worker died", Err);
        continue; // Respawn and retry once.
      }
      if (IO != FrameIOResult::Ok) {
        WorkerPool::destroy(W);
        throw DiffToolError(
            describe(std::string("transport ") + frameIOResultName(IO),
                     Err));
      }

      DiffWireResponse Resp;
      bool Decoded = false;
      try {
        Decoded = decodeDiffResponse(RespBytes, Resp, Err);
      } catch (const std::exception &E) {
        // A corrupt frame can fail mid-decode with bad_alloc/length_error
        // (absurd element counts); that is a backend failure, and it must
        // surface as one — never escape the per-task catch.
        Err = E.what();
      }
      if (Decoded && Resp.Ok)
        Decoded = rankingsFit(Resp.Result, A.Functions.size(),
                              B.Functions.size(), Err);
      if (!Decoded) {
        WorkerPool::destroy(W);
        throw DiffToolError(describe("malformed response", Err));
      }
      WorkerPool::instance().release(Argv, W);
      if (!Resp.Ok)
        throw DiffToolError(describe("worker error", Resp.Error));
      return std::move(Resp.Result);
    }
    throw DiffToolError(LastErr);
  }

private:
  std::vector<std::string> workerArgv() const {
    if (!Spec.Command.empty())
      return Spec.Command;
    return {defaultDiffWorkerPath(), "--tool",
            Spec.RemoteTool.empty() ? Spec.Name : Spec.RemoteTool};
  }

  std::string describe(const std::string &What,
                       const std::string &Detail) const {
    std::string S = "subprocess tool '" + Spec.Name + "': " + What;
    if (!Detail.empty())
      S += " (" + Detail + ")";
    return S;
  }

  SubprocessToolSpec Spec;
};

} // namespace

namespace {

/// Factory closure + name bookkeeping shared by both registration paths.
DiffToolFactory makeFactory(const SubprocessToolSpec &Spec) {
  SubprocessToolSpec Copy = Spec;
  {
    SubprocessNames &N = subprocessNames();
    std::lock_guard<std::mutex> Lock(N.M);
    N.Names.insert(Copy.Name);
  }
  return [Copy] { return std::make_unique<SubprocessDiffTool>(Copy); };
}

} // namespace

bool khaos::registerSubprocessDiffTool(const SubprocessToolSpec &Spec) {
  return registerDiffTool(Spec.Name, makeFactory(Spec));
}

bool khaos::isSubprocessDiffTool(const std::string &Name) {
  SubprocessNames &N = subprocessNames();
  std::lock_guard<std::mutex> Lock(N.M);
  return N.Names.count(Name) != 0;
}

void khaos::setDiffWorkerTimeoutMs(unsigned Ms) { GlobalTimeoutMs = Ms; }

std::string khaos::defaultDiffWorkerPath() {
  if (const char *Env = std::getenv("KHAOS_DIFF_WORKER"))
    if (Env[0] != '\0')
      return Env;
  // Next to the running executable (tests, benches and the worker all
  // land in the same build directory).
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N > 0) {
    Buf[N] = '\0';
    std::string Path(Buf);
    size_t Slash = Path.rfind('/');
    if (Slash != std::string::npos)
      return Path.substr(0, Slash + 1) + "khaos-diff-worker";
  }
  return "khaos-diff-worker"; // Fall back to $PATH.
}

uint64_t khaos::diffWorkerRoundTrips() {
  return RoundTrips.load(std::memory_order_relaxed);
}

void khaos::shutdownDiffWorkers() { WorkerPool::instance().shutdownIdle(); }

void khaos::appendBuiltinSubprocessTools(
    std::vector<std::pair<std::string, DiffToolFactory>> &Tools) {
  // The out-of-process twin of SAFE, served by khaos-diff-worker over the
  // wire protocol and bit-identical to the in-process tool (CI diffs the
  // pair through fig8 and fig9_confound). One twin proves the adapter:
  // every other tool would run through the same adapter and worker.
  // Traits are copied from a throwaway in-process instance — a direct
  // factory call, no registry re-entry, no process spawn — so the twin
  // can never drift from SAFE's declarations.
  SubprocessToolSpec Spec;
  Spec.Name = "safe-oop";
  Spec.RemoteTool = "SAFE";
  Spec.Traits = createSafeTool()->getTraits();
  Tools.emplace_back(Spec.Name, makeFactory(Spec));
}
