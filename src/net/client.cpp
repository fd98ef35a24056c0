#include "net/client.hpp"

#include <cstring>
#include <utility>

#include "util/io_error.hpp"

#if defined(__unix__) || defined(__APPLE__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace pcq::net {

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), rbuf_(std::move(other.rbuf_)),
      rpos_(std::exchange(other.rpos_, 0)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    rbuf_ = std::move(other.rbuf_);
    rpos_ = std::exchange(other.rpos_, 0);
  }
  return *this;
}

void Client::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw IoError(host, std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw IoError(host, "not an IPv4 address");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int err = errno;
    close();
    throw IoError(host + ":" + std::to_string(port),
                  std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void Client::send_request(const WireRequest& request) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kLengthBytes + kRequestPayloadBytes);
  encode_request(request, frame);
#ifdef MSG_NOSIGNAL
  constexpr int kSendFlags = MSG_NOSIGNAL;
#else
  constexpr int kSendFlags = 0;
#endif
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + sent, frame.size() - sent, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("tcp", std::string("write: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool Client::read_response(WireResponse* response) {
  for (;;) {
    std::size_t consumed = 0;
    const DecodeResult r = decode_response(
        rbuf_.data() + rpos_, rbuf_.size() - rpos_, response, &consumed);
    if (r == DecodeResult::kOk) {
      rpos_ += consumed;
      return true;
    }
    if (r == DecodeResult::kError)
      throw IoError("tcp", "malformed response frame");
    std::uint8_t chunk[kReadChunk];
    const ssize_t got = ::read(fd_, chunk, sizeof chunk);
    if (got > 0) {
      // Drop the decoded prefix first, so the buffer holds at most one
      // partial frame plus this chunk however long the stream runs.
      rbuf_.erase(rbuf_.begin(),
                  rbuf_.begin() + static_cast<std::ptrdiff_t>(rpos_));
      rpos_ = 0;
      rbuf_.insert(rbuf_.end(), chunk, chunk + static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) {
      if (rbuf_.size() > rpos_)
        throw IoError("tcp", "connection closed mid-frame");
      return false;  // clean EOF: the server drained and closed
    }
    if (errno == EINTR) continue;
    throw IoError("tcp", std::string("read: ") + std::strerror(errno));
  }
}

void Client::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
  rpos_ = 0;
}

}  // namespace pcq::net

#else  // !unix

namespace pcq::net {

Client::~Client() = default;
Client::Client(Client&&) noexcept {}
Client& Client::operator=(Client&&) noexcept { return *this; }

void Client::connect(const std::string&, std::uint16_t) {
  throw IoError("tcp", "pcq::net requires a POSIX socket layer");
}
void Client::send_request(const WireRequest&) {
  throw IoError("tcp", "pcq::net requires a POSIX socket layer");
}
bool Client::read_response(WireResponse*) { return false; }
void Client::shutdown_write() {}
void Client::close() {}

}  // namespace pcq::net

#endif
