#ifndef TPS_UTIL_SOCKET_H_
#define TPS_UTIL_SOCKET_H_

#include <string>
#include <string_view>

#include "util/statusor.h"

namespace tps {

/// Thin RAII wrappers over POSIX stream sockets ("Serving" in DESIGN.md).
/// The calls here block: clients (`tps_cli query`, the benchmark's load
/// generator, tests) use them as they are. The server takes only the fds:
/// it listens through ServerSocket and drives every connection
/// non-blocking from its own epoll loop, framing lines itself.

/// One connected stream socket (Unix-domain or TCP). Move-only; closes on
/// destruction.
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (-1 = empty).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all of `data`, looping over partial writes and EINTR.
  Status SendAll(std::string_view data);

  /// Reads up to and including the next '\n', consuming from `buffer`
  /// first (bytes read past a previous line are left there). Returns the
  /// line WITHOUT the trailing newline. A clean EOF before any byte of a
  /// new line returns kOutOfRange("connection closed"); EOF mid-line
  /// returns the partial line as-is. A line may be any length: the peer is
  /// trusted (only clients call this, on the server's replies).
  StatusOr<std::string> RecvLine(std::string* buffer);

  void Close();

 private:
  int fd_ = -1;
};

/// A listening socket, Unix-domain or TCP (IPv4 loopback).
class ServerSocket {
 public:
  /// Binds and listens on a Unix-domain socket at `path`. An existing
  /// socket file at `path` is removed first (stale leftover from a crashed
  /// server); a non-socket file is an error.
  static StatusOr<ServerSocket> ListenUnix(const std::string& path);

  /// Binds and listens on 127.0.0.1:`port`. port 0 picks a free port;
  /// port() reports the actual one.
  static StatusOr<ServerSocket> ListenTcp(int port);

  ServerSocket() = default;
  ~ServerSocket() { Close(); }
  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;
  ServerSocket(ServerSocket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  int port() const { return port_; }
  const std::string& unix_path() const { return unix_path_; }

  void Close();

 private:
  ServerSocket(int fd, int port, std::string unix_path)
      : fd_(fd), port_(port), unix_path_(std::move(unix_path)) {}

  int fd_ = -1;
  int port_ = 0;
  std::string unix_path_;
};

/// Connects to a Unix-domain socket at `path`.
StatusOr<Socket> ConnectUnix(const std::string& path);

/// Connects to 127.0.0.1:`port`.
StatusOr<Socket> ConnectTcp(int port);

}  // namespace tps

#endif  // TPS_UTIL_SOCKET_H_
