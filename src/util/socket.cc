#include "util/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <utility>

namespace tps {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status Socket::SendAll(std::string_view data) {
  if (!valid()) return Status::FailedPrecondition("send on closed socket");
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE instead of killing
    // the process with SIGPIPE.
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<std::string> Socket::RecvLine(std::string* buffer) {
  if (!valid()) return Status::FailedPrecondition("recv on closed socket");
  for (;;) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer->substr(0, newline);
      buffer->erase(0, newline + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {  // EOF.
      if (buffer->empty()) {
        return Status::OutOfRange("connection closed");
      }
      std::string line = std::move(*buffer);
      buffer->clear();
      return line;
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

void Socket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<ServerSocket> ServerSocket::ListenUnix(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("unix socket path must not be empty");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  struct ::stat st {};
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return Status::AlreadyExists("refusing to replace non-socket file: " +
                                   path);
    }
    ::unlink(path.c_str());  // Stale socket from a previous server.
  }

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_UNIX)");
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("bind " + path);
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    const Status status = Errno("listen " + path);
    ::close(fd);
    return status;
  }
  return ServerSocket(fd, 0, path);
}

StatusOr<ServerSocket> ServerSocket::ListenTcp(int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("tcp port out of range");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("bind port " + std::to_string(port));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    const Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status status = Errno("getsockname");
    ::close(fd);
    return status;
  }
  return ServerSocket(fd, ntohs(addr.sin_port), "");
}

ServerSocket::ServerSocket(ServerSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_),
      unix_path_(std::move(other.unix_path_)) {
  other.fd_ = -1;
  other.unix_path_.clear();
}

void ServerSocket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
    if (!unix_path_.empty()) {
      ::unlink(unix_path_.c_str());
      unix_path_.clear();
    }
  }
}

StatusOr<Socket> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("bad unix socket path: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_UNIX)");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("connect " + path);
    ::close(fd);
    return status;
  }
  return Socket(fd);
}

StatusOr<Socket> ConnectTcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("connect port " + std::to_string(port));
    ::close(fd);
    return status;
  }
  return Socket(fd);
}

}  // namespace tps
