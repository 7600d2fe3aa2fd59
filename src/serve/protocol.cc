#include "serve/protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "util/string_util.h"

namespace crashsim {
namespace {

// Reads exactly `len` bytes. `boundary` marks a read whose clean EOF before
// the first byte is the peer closing between frames (kUnavailable) rather
// than a truncation (kDataLoss).
Status ReadExactly(int fd, char* buf, size_t len, bool boundary) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = recv(fd, buf + done, len - done, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return DataLossError(
          StrFormat("recv failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      if (boundary && done == 0) {
        return UnavailableError("connection closed by peer");
      }
      return DataLossError(StrFormat(
          "connection closed mid-frame (%zu of %zu bytes)", done, len));
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFramePayloadBytes) {
    return ResourceExhaustedError(
        StrFormat("frame payload %zu exceeds the %u-byte protocol limit",
                  payload.size(), kMaxFramePayloadBytes));
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>((len >> 24) & 0xFF),
                    static_cast<char>((len >> 16) & 0xFF),
                    static_cast<char>((len >> 8) & 0xFF),
                    static_cast<char>(len & 0xFF)};
  std::string frame;
  frame.reserve(sizeof(header) + payload.size());
  frame.append(header, sizeof(header));
  frame.append(payload);
  size_t done = 0;
  while (done < frame.size()) {
    const ssize_t n =
        send(fd, frame.data() + done, frame.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return DataLossError(
          StrFormat("send failed: %s", std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

StatusOr<std::string> ReadFrame(int fd, uint32_t max_bytes) {
  char header[4];
  RETURN_IF_ERROR(ReadExactly(fd, header, sizeof(header), /*boundary=*/true));
  const uint32_t len =
      (static_cast<uint32_t>(static_cast<unsigned char>(header[0])) << 24) |
      (static_cast<uint32_t>(static_cast<unsigned char>(header[1])) << 16) |
      (static_cast<uint32_t>(static_cast<unsigned char>(header[2])) << 8) |
      static_cast<uint32_t>(static_cast<unsigned char>(header[3]));
  if (len > max_bytes || len > kMaxFramePayloadBytes) {
    return ResourceExhaustedError(StrFormat(
        "frame length %u exceeds the %u-byte limit", len,
        max_bytes < kMaxFramePayloadBytes ? max_bytes
                                          : kMaxFramePayloadBytes));
  }
  std::string payload(len, '\0');
  if (len > 0) {
    RETURN_IF_ERROR(ReadExactly(fd, payload.data(), len, /*boundary=*/false));
  }
  return payload;
}

}  // namespace crashsim
