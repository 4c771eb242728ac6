//===- diffing/DiffWorkerProtocol.cpp - Worker wire protocol --------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "diffing/DiffWorkerProtocol.h"

#include <chrono>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <unistd.h>

using namespace khaos;

namespace {

/// Sanity cap on one frame: a desynced stream must not be able to request
/// an absurd allocation from a bogus length prefix.
constexpr uint32_t MaxFrameBytes = 1u << 30;

constexpr WireProtocol KDW1{DiffWireMagic, DiffWireVersion,
                            /*HasKind=*/false};

/// The request body: the tool name, then the full diff() signature.
template <typename IO, typename Request>
void requestLayout(IO &X, Request &Req) {
  X.str(Req.Tool);
  binaryImageLayout(X, Req.A);
  imageFeaturesLayout(X, Req.FA);
  binaryImageLayout(X, Req.B);
  imageFeaturesLayout(X, Req.FB);
}

} // namespace

//===----------------------------------------------------------------------===//
// Shared framing.
//===----------------------------------------------------------------------===//

namespace {

/// The frame header: u32 magic, u16 version, u8 type, then a u8 kind when
/// the protocol has one.
struct FrameHeader {
  uint32_t Magic = 0;
  uint16_t Version = 0;
  WireFrameType Type = WireFrameType::Request;
  uint8_t Kind = 0;
};

template <typename IO, typename Header>
void headerLayout(IO &X, Header &H, bool HasKind) {
  X.u32(H.Magic);
  X.u16(H.Version);
  X.u8(H.Type);
  if (HasKind)
    X.u8(H.Kind);
}

/// Reads the header and checks magic + version.
bool readHeader(WireReader &R, const WireProtocol &P, FrameHeader &H,
                std::string &Err) {
  headerLayout(R, H, P.HasKind);
  if (!R.ok()) {
    Err = "truncated frame header";
    return false;
  }
  if (H.Magic != P.Magic) {
    Err = "bad frame magic";
    return false;
  }
  if (H.Version != P.Version) {
    Err = "unsupported protocol version " + std::to_string(H.Version);
    return false;
  }
  return true;
}

} // namespace

WireWriter khaos::beginFrame(const WireProtocol &P, WireFrameType Type,
                             uint8_t Kind) {
  const FrameHeader H{P.Magic, P.Version, Type, Kind};
  WireWriter W;
  headerLayout(W, H, P.HasKind);
  return W;
}

WireWriter khaos::beginResponse(const WireProtocol &P, bool Ok,
                                const std::string &Error, uint8_t Kind) {
  WireWriter W = beginFrame(
      P, Ok ? WireFrameType::ResponseOk : WireFrameType::ResponseError, Kind);
  if (!Ok)
    W.str(Error);
  return W;
}

bool khaos::openRequest(WireReader &R, const WireProtocol &P,
                        std::string &Err, uint8_t *Kind) {
  FrameHeader H;
  if (!readHeader(R, P, H, Err))
    return false;
  if (H.Type != WireFrameType::Request) {
    Err = "expected a request frame";
    return false;
  }
  if (Kind)
    *Kind = H.Kind;
  return true;
}

bool khaos::openResponse(WireReader &R, const WireProtocol &P, bool &Ok,
                         std::string &Error, std::string &Err,
                         uint8_t *Kind) {
  FrameHeader H;
  if (!readHeader(R, P, H, Err))
    return false;
  if (Kind)
    *Kind = H.Kind;
  Ok = H.Type == WireFrameType::ResponseOk;
  if (H.Type == WireFrameType::ResponseError) {
    R.str(Error);
    if (!R.ok() || !R.atEnd()) {
      Err = "malformed error response";
      return false;
    }
    return true;
  }
  if (!Ok) {
    Err = "expected a response frame";
    return false;
  }
  return true;
}

bool khaos::closeBody(const WireReader &R, const char *What,
                      std::string &Err) {
  if (!R.ok()) {
    Err = std::string("truncated ") + What + " body";
    return false;
  }
  if (!R.atEnd()) {
    Err = std::string("trailing bytes after ") + What + " body";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// KDW1 messages.
//===----------------------------------------------------------------------===//

std::vector<uint8_t> khaos::encodeDiffRequest(const DiffWireRequest &Req) {
  WireWriter W = beginFrame(KDW1, WireFrameType::Request);
  requestLayout(W, Req);
  return std::move(W.Buf);
}

std::vector<uint8_t> khaos::encodeDiffResponse(const DiffWireResponse &Resp) {
  WireWriter W = beginResponse(KDW1, Resp.Ok, Resp.Error);
  if (Resp.Ok)
    diffResultLayout(W, Resp.Result);
  return std::move(W.Buf);
}

bool khaos::decodeDiffRequest(const std::vector<uint8_t> &Payload,
                              DiffWireRequest &Req, std::string &Err) {
  WireReader R(Payload);
  if (!openRequest(R, KDW1, Err))
    return false;
  requestLayout(R, Req);
  return closeBody(R, "request", Err);
}

bool khaos::decodeDiffResponse(const std::vector<uint8_t> &Payload,
                               DiffWireResponse &Resp, std::string &Err) {
  WireReader R(Payload);
  if (!openResponse(R, KDW1, Resp.Ok, Resp.Error, Err))
    return false;
  if (!Resp.Ok)
    return true;
  diffResultLayout(R, Resp.Result);
  return closeBody(R, "response", Err);
}

//===----------------------------------------------------------------------===//
// Frame transport.
//===----------------------------------------------------------------------===//

const char *khaos::frameIOResultName(FrameIOResult R) {
  switch (R) {
  case FrameIOResult::Ok:
    return "ok";
  case FrameIOResult::Timeout:
    return "timeout";
  case FrameIOResult::Eof:
    return "eof";
  case FrameIOResult::Error:
    return "error";
  case FrameIOResult::Malformed:
    return "malformed";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left until \p Deadline for poll(); -1 for "no deadline",
/// 0 once the deadline has passed.
int remainingMs(bool HasDeadline, Clock::time_point Deadline) {
  if (!HasDeadline)
    return -1;
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
      Deadline - Clock::now());
  if (Left.count() <= 0)
    return 0;
  return static_cast<int>(Left.count());
}

/// Waits until \p Fd is ready for \p Events. Ok, Timeout or Error.
FrameIOResult waitFd(int Fd, short Events, bool HasDeadline,
                     Clock::time_point Deadline, std::string &Err) {
  for (;;) {
    int Left = remainingMs(HasDeadline, Deadline);
    if (HasDeadline && Left == 0)
      return FrameIOResult::Timeout;
    struct pollfd P;
    P.fd = Fd;
    P.events = Events;
    P.revents = 0;
    int N = ::poll(&P, 1, Left);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = std::string("poll: ") + std::strerror(errno);
      return FrameIOResult::Error;
    }
    if (N == 0)
      return FrameIOResult::Timeout;
    // Readable/writable — or HUP/ERR, which the read()/write() below will
    // turn into a precise Eof/Error.
    return FrameIOResult::Ok;
  }
}

FrameIOResult readAll(int Fd, uint8_t *Out, size_t N, bool HasDeadline,
                      Clock::time_point Deadline, bool &SawAnyByte,
                      std::string &Err) {
  size_t Done = 0;
  while (Done != N) {
    FrameIOResult W = waitFd(Fd, POLLIN, HasDeadline, Deadline, Err);
    if (W != FrameIOResult::Ok)
      return W;
    ssize_t R = ::read(Fd, Out + Done, N - Done);
    if (R < 0) {
      // EAGAIN: O_NONBLOCK fd raced another consumer or poll woke us
      // spuriously — re-poll against the deadline.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      Err = std::string("read: ") + std::strerror(errno);
      return FrameIOResult::Error;
    }
    if (R == 0) {
      if (Done != 0 || SawAnyByte)
        Err = "stream ended mid-frame";
      return FrameIOResult::Eof;
    }
    Done += static_cast<size_t>(R);
    SawAnyByte = true;
  }
  return FrameIOResult::Ok;
}

} // namespace

FrameIOResult khaos::writeDiffFrame(int Fd,
                                    const std::vector<uint8_t> &Payload,
                                    int TimeoutMs, std::string &Err) {
  if (Payload.size() > MaxFrameBytes) {
    Err = "frame exceeds the 1 GiB sanity cap";
    return FrameIOResult::Malformed;
  }
  bool HasDeadline = TimeoutMs >= 0;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs < 0 ? 0 : TimeoutMs);

  uint32_t Len = static_cast<uint32_t>(Payload.size());
  std::vector<uint8_t> Buf(4 + Payload.size());
  std::memcpy(Buf.data(), &Len, 4);
  std::memcpy(Buf.data() + 4, Payload.data(), Payload.size());

  size_t Done = 0;
  while (Done != Buf.size()) {
    FrameIOResult W = waitFd(Fd, POLLOUT, HasDeadline, Deadline, Err);
    if (W != FrameIOResult::Ok)
      return W;
    ssize_t R = ::write(Fd, Buf.data() + Done, Buf.size() - Done);
    if (R < 0) {
      // EAGAIN only occurs on O_NONBLOCK fds (the harness sets its pipe
      // ends non-blocking precisely so a full pipe cannot swallow the
      // deadline: a blocking pipe write of more than PIPE_BUF bytes
      // blocks until ALL bytes are written, past any poll() timeout).
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      if (errno == EPIPE) {
        // The reader is gone: report Eof so the pool respawns the worker.
        Err = "peer closed the pipe";
        return FrameIOResult::Eof;
      }
      Err = std::string("write: ") + std::strerror(errno);
      return FrameIOResult::Error;
    }
    Done += static_cast<size_t>(R);
  }
  return FrameIOResult::Ok;
}

FrameIOResult khaos::readDiffFrame(int Fd, std::vector<uint8_t> &Payload,
                                   int TimeoutMs, std::string &Err) {
  bool HasDeadline = TimeoutMs >= 0;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs < 0 ? 0 : TimeoutMs);

  bool SawAnyByte = false;
  uint32_t Len = 0;
  FrameIOResult R =
      readAll(Fd, reinterpret_cast<uint8_t *>(&Len), 4, HasDeadline,
              Deadline, SawAnyByte, Err);
  if (R != FrameIOResult::Ok)
    return R;
  if (Len > MaxFrameBytes) {
    Err = "frame length " + std::to_string(Len) +
          " exceeds the 1 GiB sanity cap (desynced stream?)";
    return FrameIOResult::Malformed;
  }
  Payload.resize(Len);
  return readAll(Fd, Payload.data(), Len, HasDeadline, Deadline, SawAnyByte,
                 Err);
}
