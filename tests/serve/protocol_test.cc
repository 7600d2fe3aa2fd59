#include "serve/protocol.h"

#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "util/status.h"

namespace crashsim {
namespace {

// A connected socketpair stands in for a TCP connection; the framing layer
// only sees fds.
class SocketPair : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_ = fds[0];
    b_ = fds[1];
  }
  void TearDown() override {
    if (a_ >= 0) close(a_);
    if (b_ >= 0) close(b_);
  }
  void CloseA() {
    close(a_);
    a_ = -1;
  }
  int a_ = -1;
  int b_ = -1;
};

TEST_F(SocketPair, FramesRoundTripInOrder) {
  ASSERT_TRUE(WriteFrame(a_, "{\"op\":\"ping\"}").ok());
  ASSERT_TRUE(WriteFrame(a_, "").ok());
  ASSERT_TRUE(WriteFrame(a_, std::string(100000, 'x')).ok());

  StatusOr<std::string> first = ReadFrame(b_);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, "{\"op\":\"ping\"}");
  StatusOr<std::string> second = ReadFrame(b_);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->empty());
  StatusOr<std::string> third = ReadFrame(b_);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->size(), 100000u);
}

TEST_F(SocketPair, CleanCloseAtBoundaryIsUnavailable) {
  ASSERT_TRUE(WriteFrame(a_, "last").ok());
  CloseA();
  StatusOr<std::string> frame = ReadFrame(b_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, "last");
  EXPECT_EQ(ReadFrame(b_).status().code(), StatusCode::kUnavailable);
}

TEST_F(SocketPair, TruncatedFrameIsDataLoss) {
  // Header promises 100 bytes; only 3 arrive before EOF.
  const char header[4] = {0, 0, 0, 100};
  ASSERT_EQ(send(a_, header, 4, 0), 4);
  ASSERT_EQ(send(a_, "abc", 3, 0), 3);
  CloseA();
  EXPECT_EQ(ReadFrame(b_).status().code(), StatusCode::kDataLoss);
}

TEST_F(SocketPair, OversizedLengthPrefixIsRejectedWithoutAllocating) {
  const char header[4] = {0x7F, -1, -1, -1};  // ~2 GiB declared
  ASSERT_EQ(send(a_, header, 4, 0), 4);
  EXPECT_EQ(ReadFrame(b_).status().code(), StatusCode::kResourceExhausted);
  // A caller-supplied tighter cap also applies.
  ASSERT_TRUE(WriteFrame(a_, std::string(64, 'y')).ok());
  EXPECT_EQ(ReadFrame(b_, /*max_bytes=*/16).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(SocketPair, OversizedWriteIsRefused) {
  // Refused before any bytes hit the wire (no partial frame corruption).
  const std::string huge(size_t{kMaxFramePayloadBytes} + 1, 'z');
  EXPECT_EQ(WriteFrame(a_, huge).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(WriteFrame(a_, "still usable").ok());
  StatusOr<std::string> frame = ReadFrame(b_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, "still usable");
}

}  // namespace
}  // namespace crashsim
