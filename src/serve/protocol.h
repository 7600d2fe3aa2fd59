#ifndef CRASHSIM_SERVE_PROTOCOL_H_
#define CRASHSIM_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace crashsim {

// Length-prefixed framing for the crashsim_serve wire protocol
// (docs/SERVING.md): each frame is a 4-byte big-endian payload length
// followed by that many bytes of UTF-8 JSON. Both sides speak the same
// frames; a connection is a sequence of request frames answered in order by
// response frames.
//
// All functions handle partial reads/writes and EINTR, and never raise
// SIGPIPE (sends use MSG_NOSIGNAL). Error taxonomy:
//   kUnavailable       clean EOF at a frame boundary (peer closed, or the
//                      reading side was shut down; the normal end of a
//                      connection, not a fault)
//   kDataLoss          EOF or error mid-frame (truncated stream)
//   kResourceExhausted frame length exceeds max_bytes

// Hard ceiling a frame may declare, shared by both directions. Large enough
// for a full single-source score vector on the bench graphs, small enough
// that a hostile length prefix cannot make the server allocate blindly.
inline constexpr uint32_t kMaxFramePayloadBytes = 64u << 20;

// Ceiling the server reads request frames with. Requests are a few hundred
// bytes of JSON, and ReadFrame allocates the declared length as soon as the
// header lands, so a client that sends only a header must not make the
// server commit the response-sized limit above.
inline constexpr uint32_t kMaxRequestFrameBytes = 1u << 20;

// Writes one frame. Blocks until fully written or the connection fails.
[[nodiscard]] Status WriteFrame(int fd, std::string_view payload);

// Reads one frame, blocking in recv until it is complete or the stream
// ends. There is no timeout: a server stopping for shutdown wakes the read
// with shutdown(fd, SHUT_RD), which ends it as an EOF would. An idle
// connection then ends with kUnavailable; a frame that was part-received
// ends with kDataLoss, unless its remaining bytes had already arrived.
[[nodiscard]] StatusOr<std::string> ReadFrame(
    int fd, uint32_t max_bytes = kMaxFramePayloadBytes);

}  // namespace crashsim

#endif  // CRASHSIM_SERVE_PROTOCOL_H_
