#include "server/wire.h"

#include <cerrno>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace sc::server::wire {

namespace {

/// Send every byte of iov[0, count) with gather writes, resuming a
/// partial write at the exact byte it stopped at (which may fall inside
/// any iovec) and retrying EINTR. MSG_NOSIGNAL turns a write to a
/// half-closed peer into EPIPE instead of a process-killing SIGPIPE — an
/// abruptly-closed client must never take the daemon down (the caller
/// sees `false` and drops the connection). An SO_SNDTIMEO expiry
/// (EAGAIN) is a hard error like any other.
bool send_all(int fd, iovec* iov, std::size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    // Drop the iovecs sent in full (empty ones included), then advance
    // into the first one sent in part.
    auto sent = static_cast<std::size_t>(w);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return true;
}

/// Read exactly `n` bytes; false on EOF or a hard error.
bool read_all(int fd, std::uint8_t* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, data + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    done += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

bool write_frame(int fd, const std::uint8_t* body, std::size_t n) {
  return write_frame(fd, body, n, nullptr, 0);
}

bool write_frame(int fd, const std::uint8_t* head, std::size_t head_n,
                 const std::uint8_t* tail, std::size_t tail_n) {
  std::uint8_t prefix[4];
  const auto len = static_cast<std::uint32_t>(head_n + tail_n);
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  // sendmsg never writes through iov_base; the casts only drop const.
  iovec iov[3] = {{prefix, sizeof prefix},
                  {const_cast<std::uint8_t*>(head), head_n},
                  {const_cast<std::uint8_t*>(tail), tail_n}};
  return send_all(fd, iov, 3);
}

bool read_frame(int fd, std::vector<std::uint8_t>& body) {
  std::uint8_t header[4];
  if (!read_all(fd, header, sizeof header)) return false;
  const std::uint32_t len = get_u32(header);
  if (len > kMaxFrame) return false;
  body.resize(len);
  return len == 0 || read_all(fd, body.data(), len);
}

}  // namespace sc::server::wire
