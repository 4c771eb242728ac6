//===- diffing/DiffWorkerProtocol.h - Worker wire protocol ------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between the harness and an out-of-process diffing
/// worker (jTrans-style learned models cannot run in-process; they speak
/// this protocol instead — see README "Out-of-process diffing workers").
///
/// Transport: length-prefixed frames over a pipe pair (worker stdin /
/// stdout). Each frame is a little-endian u32 payload length followed by
/// the payload. Every payload begins with a fixed header:
///
///   u32 magic   0x4B445731 ("KDW1" read as bytes 31 57 44 4B)
///   u16 version 1
///   u8  type    1 = request, 2 = response (ok), 3 = response (error)
///
/// A request carries the registry name of the tool to run plus the full
/// diff() signature — both BinaryImages and both ImageFeatures — encoded
/// field-for-field (doubles as raw IEEE-754 bit patterns), so a worker
/// that deserializes a request and runs the in-process tool produces a
/// bit-identical DiffResult to an in-process run. An ok-response carries
/// the DiffResult; an error-response carries a message string.
///
/// The encoding has no optional fields and no alignment padding: the same
/// value always encodes to the same bytes. Each record's field order is
/// written once, as a layout function template that the encoder runs
/// over a WireWriter and the decoder over a WireReader, so the two
/// directions cannot disagree (DiffWorkerTest pins a golden frame and the
/// digests of real request and response frames so the format cannot
/// drift silently either).
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_DIFFING_DIFFWORKERPROTOCOL_H
#define KHAOS_DIFFING_DIFFWORKERPROTOCOL_H

#include "diffing/DiffTool.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace khaos {

/// Protocol constants.
constexpr uint32_t DiffWireMagic = 0x4B445731; // "KDW1"
constexpr uint16_t DiffWireVersion = 1;

//===----------------------------------------------------------------------===//
// Little-endian buffer writer/reader. Fixed-width fields only, no padding:
// identical values always encode to identical bytes. Shared by the diff
// worker frames, the on-disk ArtifactStore tier (harness/DiskCache) and the
// khaos-evald service protocol (harness/EvalService) so every serialized
// form in the project has one byte-level convention.
//
// Both classes have the same field methods, so a record's layout is one
// template over the IO class (e.g. binaryImageLayout below): the writer
// takes each field by value (an `unsigned` passed to u64 widens), the
// reader assigns through static_cast (enums, bools and `unsigned` fields
// decode as they were written). seq/map carry a u32 element count.
//===----------------------------------------------------------------------===//

class WireWriter {
public:
  std::vector<uint8_t> Buf;

  template <typename T> void u8(T V) { put<uint8_t>(V); }
  template <typename T> void u16(T V) { put<uint16_t>(V); }
  template <typename T> void u32(T V) { put<uint32_t>(V); }
  template <typename T> void u64(T V) { put<uint64_t>(V); }
  template <typename T> void i32(T V) { put<int32_t>(V); }
  template <typename T> void i64(T V) { put<int64_t>(V); }
  void f64(double V) {
    // Raw bit pattern: the decoder reproduces the exact double, which is
    // what makes serialized results bit-identical to in-process ones.
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    u64(Bits);
  }
  void str(const std::string &S) {
    u32(S.size());
    raw(S.data(), S.size());
  }
  /// Two flags in one byte: bit 0 = \p A, bit 1 = \p B.
  void flags(bool A, bool B) { u8((A ? 1 : 0) | (B ? 2 : 0)); }
  template <typename T, typename Fn>
  void seq(const std::vector<T> &V, Fn One) {
    u32(V.size());
    for (const T &E : V)
      One(E);
  }
  template <typename Map, typename Fn> void map(const Map &M, Fn One) {
    u32(M.size());
    for (const auto &Entry : M)
      One(Entry.first, Entry.second);
  }

private:
  template <typename Wire, typename T> void put(T V) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "integer fields encode from integers, bools or enums");
    // Host byte order is little-endian on every platform this project
    // targets (x86-64, AArch64); a big-endian port would swap here.
    Wire W = static_cast<Wire>(V);
    raw(&W, sizeof(Wire));
  }
  void raw(const void *P, size_t N) {
    if (N == 0)
      return;
    size_t Old = Buf.size();
    Buf.resize(Old + N);
    std::memcpy(Buf.data() + Old, P, N);
  }
};

/// Reads what WireWriter wrote. A read past the end fails the reader for
/// good (ok() turns false, every later read yields zero); decoders check
/// ok() once, after the whole record.
class WireReader {
public:
  WireReader(const uint8_t *Data, size_t Size) : P(Data), End(Data + Size) {}
  explicit WireReader(const std::vector<uint8_t> &Buf)
      : WireReader(Buf.data(), Buf.size()) {}

  bool ok() const { return !Failed; }
  bool atEnd() const { return P == End; }
  size_t remaining() const { return static_cast<size_t>(End - P); }

  template <typename T> void u8(T &Out) { take<uint8_t>(Out); }
  template <typename T> void u16(T &Out) { take<uint16_t>(Out); }
  template <typename T> void u32(T &Out) { take<uint32_t>(Out); }
  template <typename T> void u64(T &Out) { take<uint64_t>(Out); }
  template <typename T> void i32(T &Out) { take<int32_t>(Out); }
  template <typename T> void i64(T &Out) { take<int64_t>(Out); }
  void f64(double &Out) {
    uint64_t Bits = get<uint64_t>();
    std::memcpy(&Out, &Bits, 8);
  }
  void str(std::string &Out) {
    uint32_t N = get<uint32_t>();
    if (Failed || remaining() < N) {
      Failed = true;
      Out.clear();
      return;
    }
    Out.assign(reinterpret_cast<const char *>(P), N);
    P += N;
  }
  void flags(bool &A, bool &B) {
    uint8_t F = get<uint8_t>();
    A = (F & 1) != 0;
    B = (F & 2) != 0;
  }
  /// seq and map stop at the first element that fails.
  template <typename T, typename Fn> void seq(std::vector<T> &V, Fn One) {
    uint32_t N = count();
    V.resize(N);
    for (uint32_t I = 0; I != N && !Failed; ++I)
      One(V[I]);
  }
  template <typename Map, typename Fn> void map(Map &M, Fn One) {
    uint32_t N = count();
    M.clear();
    for (uint32_t I = 0; I != N && !Failed; ++I) {
      typename Map::key_type K{};
      typename Map::mapped_type V{};
      One(K, V);
      M.emplace(std::move(K), std::move(V));
    }
  }

private:
  template <typename Wire, typename T> void take(T &Out) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "integer fields decode into integers, bools or enums");
    Out = static_cast<T>(get<Wire>());
  }
  template <typename Wire> Wire get() {
    Wire V = 0;
    if (Failed || remaining() < sizeof(Wire)) {
      Failed = true;
      return V;
    }
    std::memcpy(&V, P, sizeof(Wire));
    P += sizeof(Wire);
    return V;
  }
  /// A u32 element count, bounded by the bytes actually left (each
  /// element encodes to >= 1 byte, so a count beyond that is malformed and
  /// is refused before anything is allocated for it).
  uint32_t count() {
    uint32_t N = get<uint32_t>();
    if (!Failed && N > remaining())
      Failed = true;
    return Failed ? 0 : N;
  }

  const uint8_t *P;
  const uint8_t *End;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Record layouts. Each is the one statement of a record's field order,
// run by the encoder over a WireWriter and by the decoder over a
// WireReader. BinaryImage and ImageFeatures travel in KDW1 requests and in
// the disk tier's image artifacts; DiffResult in KDW1 ok-responses and in
// the disk tier's DiffOutcome artifacts.
//===----------------------------------------------------------------------===//

template <typename IO, typename Image>
void binaryImageLayout(IO &X, Image &Img) {
  X.str(Img.Name);
  X.seq(Img.Functions, [&](auto &F) {
    X.str(F.Name);
    X.u64(F.Address);
    X.u8(F.Exported);
    X.seq(F.Origins, [&](auto &O) { X.str(O); });
    X.seq(F.Blocks, [&](auto &B) {
      X.str(B.Name);
      X.seq(B.Insts, [&](auto &I) {
        X.u8(I.Op);
        X.flags(I.HasMemOperand, I.HasImmediate);
        X.i32(I.SymId);
        X.i64(I.Imm);
      });
      X.seq(B.Succs, [&](auto &S) { X.u32(S); });
    });
  });
  X.seq(Img.Symbols, [&](auto &S) { X.str(S); });
  X.seq(Img.DataRelocs, [&](auto &R) {
    X.str(R.GlobalName);
    X.u64(R.Offset);
    X.i32(R.SymId);
    X.i64(R.Addend);
  });
  // The name->index map is serialized explicitly rather than rebuilt, so a
  // decoded image is field-for-field identical to the encoded one even for
  // degenerate inputs (duplicate names, stale entries).
  X.map(Img.FunctionIndex, [&](auto &Name, auto &Idx) {
    X.str(Name);
    X.u32(Idx);
  });
}

template <typename IO, typename Features>
void imageFeaturesLayout(IO &X, Features &F) {
  X.seq(F.Funcs, [&](auto &FF) {
    auto U32 = [&](auto &V) { X.u32(V); };
    auto F64 = [&](auto &V) { X.f64(V); };
    X.str(FF.Name);
    X.u32(FF.NumBlocks);
    X.u32(FF.NumEdges);
    X.u32(FF.NumCalls);
    X.u32(FF.NumIndirectCalls);
    X.u32(FF.NumInsts);
    X.u32(FF.CallGraphIn);
    X.u32(FF.CallGraphOut);
    X.seq(FF.Callees, U32);
    X.seq(FF.OpcodeHist, F64);
    X.seq(FF.SemanticVec, F64);
    X.seq(FF.Immediates, [&](auto &V) { X.i64(V); });
    X.seq(FF.TokenSeq, U32);
    X.seq(FF.BlockHists, [&](auto &H) { X.seq(H, F64); });
    X.seq(FF.BlockSuccs, [&](auto &S) { X.seq(S, U32); });
  });
}

template <typename IO, typename Result>
void diffResultLayout(IO &X, Result &R) {
  X.seq(R.Rankings, [&](auto &Ranking) {
    X.seq(Ranking, [&](auto &Idx) { X.u32(Idx); });
  });
  X.f64(R.WholeBinarySimilarity);
}

//===----------------------------------------------------------------------===//
// Framing shared by KDW1 (below) and KEV1 (harness/EvalService): a header
// of u32 magic, u16 version, u8 type (KEV1 adds a u8 kind), one fixed
// body layout per type, and an error-response whose body is one string.
//===----------------------------------------------------------------------===//

/// What tells the framed protocols apart.
struct WireProtocol {
  uint32_t Magic;
  uint16_t Version;
  bool HasKind; ///< A u8 kind follows the type byte (KEV1).
};

enum class WireFrameType : uint8_t {
  Request = 1,
  ResponseOk = 2,
  ResponseError = 3,
};

/// Starts a frame with \p P's header; \p Kind is written only when \p P
/// has a kind byte.
WireWriter beginFrame(const WireProtocol &P, WireFrameType Type,
                      uint8_t Kind = 0);

/// Starts a response frame. An error-response is complete on return (its
/// body is \p Error alone); an ok-response's body follows.
WireWriter beginResponse(const WireProtocol &P, bool Ok,
                         const std::string &Error, uint8_t Kind = 0);

/// Checks a received request's header and type, leaving \p R at the
/// body; \p Kind, when given, receives the kind byte of a protocol that
/// has one. False with \p Err: "truncated frame header", "bad frame
/// magic", "unsupported protocol version N" or "expected a request
/// frame".
bool openRequest(WireReader &R, const WireProtocol &P, std::string &Err,
                 uint8_t *Kind = nullptr);

/// Checks a received response's header and type. An error-response is
/// decoded whole (\p Ok = false, its message in \p Error, "malformed error
/// response" unless the body is exactly one string); an ok-response sets
/// \p Ok and leaves \p R at the body.
bool openResponse(WireReader &R, const WireProtocol &P, bool &Ok,
                  std::string &Error, std::string &Err,
                  uint8_t *Kind = nullptr);

/// The check after every decoded body: "truncated <What> body" when a
/// read ran past the end, "trailing bytes after <What> body" when bytes
/// are left over.
bool closeBody(const WireReader &R, const char *What, std::string &Err);

//===----------------------------------------------------------------------===//
// KDW1 messages.
//===----------------------------------------------------------------------===//

/// One diffing request: run tool \c Tool over the (A, B) pair.
struct DiffWireRequest {
  std::string Tool;
  BinaryImage A, B;
  ImageFeatures FA, FB;
};

/// One diffing response: \c Result when \c Ok, else \c Error.
struct DiffWireResponse {
  bool Ok = false;
  std::string Error;
  DiffResult Result;
};

/// Encodes \p Req into a frame payload (header included, length prefix
/// excluded — the transport adds it).
std::vector<uint8_t> encodeDiffRequest(const DiffWireRequest &Req);

/// Encodes \p Resp into a frame payload.
std::vector<uint8_t> encodeDiffResponse(const DiffWireResponse &Resp);

/// Decodes a request payload. Returns false (with \p Err set) on a
/// malformed frame: bad magic/version/type, truncated body, or trailing
/// garbage.
bool decodeDiffRequest(const std::vector<uint8_t> &Payload,
                       DiffWireRequest &Req, std::string &Err);

/// Decodes a response payload (either ok or error type).
bool decodeDiffResponse(const std::vector<uint8_t> &Payload,
                        DiffWireResponse &Resp, std::string &Err);

//===----------------------------------------------------------------------===//
// Frame transport over file descriptors.
//===----------------------------------------------------------------------===//

/// Outcome of one frame read/write, so callers can tell a hung worker
/// (Timeout — kill it, do not retry) from a dead one (Eof — respawn and
/// retry once) from a desynced stream (Malformed — fail hard).
enum class FrameIOResult : uint8_t { Ok, Timeout, Eof, Error, Malformed };

/// Printable FrameIOResult for diagnostics.
const char *frameIOResultName(FrameIOResult R);

/// Writes the length prefix and \p Payload to \p Fd. \p TimeoutMs < 0
/// blocks indefinitely. Partial writes are resumed; EPIPE (worker died)
/// reports Eof.
FrameIOResult writeDiffFrame(int Fd, const std::vector<uint8_t> &Payload,
                             int TimeoutMs, std::string &Err);

/// Reads one length-prefixed frame from \p Fd into \p Payload. A clean
/// end-of-stream before the first prefix byte reports Eof with an empty
/// \p Err; a mid-frame EOF reports Eof with a diagnostic. Frames above an
/// internal sanity cap (1 GiB) report Malformed (a desynced stream would
/// otherwise ask for an absurd allocation).
FrameIOResult readDiffFrame(int Fd, std::vector<uint8_t> &Payload,
                            int TimeoutMs, std::string &Err);

} // namespace khaos

#endif // KHAOS_DIFFING_DIFFWORKERPROTOCOL_H
