// Blocking TCP client for the pcq::net frame protocol.
//
// Deliberately simple: one socket, blocking syscalls, an internal read
// buffer. send_request() writes a frame (pipelining is fine — call it as
// many times as you like before reading), read_response() blocks until one
// whole response frame arrives. The server answers every well-formed
// request frame exactly once (kOk, kRejected, kInvalid, ... — rejection is
// a response, not a dropped frame), so a client that sent N requests can
// simply read N responses. Used by the bench_svc TCP load generator, the
// net test suite, and `pcq_serve --connect`.
#pragma once

#include <cstdint>
#include <string>

#include "net/protocol.hpp"

namespace pcq::net {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to host:port; throws pcq::IoError on failure.
  void connect(const std::string& host, std::uint16_t port);

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Bytes held in the read buffer, decoded or not. Stays below one read
  /// chunk (kReadChunk) plus one frame.
  [[nodiscard]] std::size_t buffered_bytes() const { return rbuf_.size(); }

  /// Most bytes one read() asks the socket for.
  static constexpr std::size_t kReadChunk = 64 * 1024;

  /// Writes one request frame (blocking until the kernel takes the bytes).
  /// Throws pcq::IoError when the connection broke.
  void send_request(const WireRequest& request);

  /// Blocks until one whole response frame is read. Returns false on a
  /// clean EOF with no partial frame buffered (the server drained and
  /// closed); throws pcq::IoError on a mid-frame EOF, a read error, or a
  /// malformed frame.
  bool read_response(WireResponse* response);

  /// Closes the write side so the server sees EOF; responses already in
  /// flight can still be read.
  void shutdown_write();

  void close();

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> rbuf_;
  std::size_t rpos_ = 0;
};

}  // namespace pcq::net
