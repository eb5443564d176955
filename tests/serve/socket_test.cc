// POSIX socket wrappers: Unix + TCP listen/connect, line framing across
// partial reads, EOF handling, and shutdown(2) unblocking a parked accept
// or reader.

#include "util/socket.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <latch>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace tps {
namespace {

std::string TempSocketPath(const std::string& tag) {
  return testing::TempDir() + "/tps_socket_test_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Accepts one client on the listener with accept(2); the server accepts
/// with accept4 from its own loop. A listener shut down with shutdown(2)
/// fails it, which reads as Unavailable.
StatusOr<Socket> Accept(const ServerSocket& server) {
  for (;;) {
    const int fd = ::accept(server.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno != EINTR) {
      return Status::Unavailable(std::string("accept: ") +
                                 std::strerror(errno));
    }
  }
}

TEST(SocketTest, UnixRoundTrip) {
  const std::string path = TempSocketPath("roundtrip");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(server->unix_path(), path);

  std::thread client_thread([&path] {
    auto client = ConnectUnix(path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->SendAll("hello server\n").ok());
    std::string buffer;
    auto reply = client->RecvLine(&buffer);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, "hello client");
  });

  auto conn = Accept(*server);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  std::string buffer;
  auto line = conn->RecvLine(&buffer);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(*line, "hello server");  // Newline stripped.
  ASSERT_TRUE(conn->SendAll("hello client\n").ok());
  client_thread.join();
}

TEST(SocketTest, TcpAutoAssignsPort) {
  auto server = ServerSocket::ListenTcp(0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_GT(server->port(), 0);

  std::thread client_thread([port = server->port()] {
    auto client = ConnectTcp(port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->SendAll("over tcp\n").ok());
  });
  auto conn = Accept(*server);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  std::string buffer;
  auto line = conn->RecvLine(&buffer);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "over tcp");
  client_thread.join();
}

TEST(SocketTest, RecvLineSplitsMultipleLinesFromOneWrite) {
  const std::string path = TempSocketPath("multiline");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok());

  std::thread client_thread([&path] {
    auto client = ConnectUnix(path);
    ASSERT_TRUE(client.ok());
    // Three lines and the start of a fourth in a single send.
    ASSERT_TRUE(client->SendAll("one\ntwo\nthree\nfour-part").ok());
    ASSERT_TRUE(client->SendAll("ial\n").ok());  // Finish line four.
  });

  auto conn = Accept(*server);
  ASSERT_TRUE(conn.ok());
  std::string buffer;
  EXPECT_EQ(*conn->RecvLine(&buffer), "one");
  EXPECT_EQ(*conn->RecvLine(&buffer), "two");
  EXPECT_EQ(*conn->RecvLine(&buffer), "three");
  // The fourth line arrives across two writes; RecvLine stitches it.
  EXPECT_EQ(*conn->RecvLine(&buffer), "four-partial");
  client_thread.join();
}

TEST(SocketTest, CleanEofIsOutOfRange) {
  const std::string path = TempSocketPath("eof");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok());

  std::thread client_thread([&path] {
    auto client = ConnectUnix(path);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->SendAll("last full line\n").ok());
    // Destructor closes: clean EOF after a complete line.
  });
  auto conn = Accept(*server);
  ASSERT_TRUE(conn.ok());
  std::string buffer;
  EXPECT_EQ(*conn->RecvLine(&buffer), "last full line");
  auto eof = conn->RecvLine(&buffer);
  EXPECT_FALSE(eof.ok());
  EXPECT_TRUE(eof.status().IsOutOfRange()) << eof.status().ToString();
  client_thread.join();
}

TEST(SocketTest, MidLineEofReturnsPartialLine) {
  const std::string path = TempSocketPath("partial");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok());

  std::thread client_thread([&path] {
    auto client = ConnectUnix(path);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->SendAll("no newline here").ok());
  });
  auto conn = Accept(*server);
  ASSERT_TRUE(conn.ok());
  std::string buffer;
  auto line = conn->RecvLine(&buffer);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(*line, "no newline here");
  client_thread.join();
}

TEST(SocketTest, ShutdownUnblocksParkedAccept) {
  const std::string path = TempSocketPath("unblock");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok());

  // shutdown(2) must stop the acceptor whether it is already parked in
  // accept(2) or only about to enter it (then accept fails at once), so
  // the latch only has to order shutdown after the acceptor has started.
  std::atomic<bool> accept_returned{false};
  std::latch accepting(1);
  std::thread acceptor([&] {
    accepting.count_down();
    auto conn = Accept(*server);  // Parks: no client will connect.
    EXPECT_FALSE(conn.ok());
    EXPECT_TRUE(conn.status().IsUnavailable()) << conn.status().ToString();
    accept_returned.store(true);
  });
  accepting.wait();
  EXPECT_FALSE(accept_returned.load());
  ::shutdown(server->fd(), SHUT_RDWR);
  acceptor.join();
  EXPECT_TRUE(accept_returned.load());
  // After shutdown every further accept fails fast too.
  EXPECT_FALSE(Accept(*server).ok());
}

TEST(SocketTest, ShutdownBothUnblocksParkedReader) {
  const std::string path = TempSocketPath("reader");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok());

  auto client = ConnectUnix(path);
  ASSERT_TRUE(client.ok());
  auto conn = Accept(*server);
  ASSERT_TRUE(conn.ok());

  // As above: a recv entered before or after shutdown reads EOF.
  std::latch reading(1);
  std::thread reader([&] {
    reading.count_down();
    std::string buffer;
    auto line = conn->RecvLine(&buffer);  // Parks: client sends nothing.
    EXPECT_FALSE(line.ok());  // Reads as EOF once shut down.
  });
  reading.wait();
  ::shutdown(conn->fd(), SHUT_RDWR);
  reader.join();
}

TEST(SocketTest, StaleSocketFileIsReplaced) {
  const std::string path = TempSocketPath("stale");
  {
    auto first = ServerSocket::ListenUnix(path);
    ASSERT_TRUE(first.ok());
    // Simulate a crash: drop the listener without removing the file...
  }
  // ...the file may linger; a fresh listener must still bind.
  auto second = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  std::thread client_thread([&path] {
    auto client = ConnectUnix(path);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
  });
  auto conn = Accept(*second);
  EXPECT_TRUE(conn.ok());
  client_thread.join();
}

TEST(SocketTest, NonSocketFileAtPathIsAnError) {
  const std::string path = TempSocketPath("regular_file");
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("precious data\n", f);
  std::fclose(f);

  // Refuses to clobber a regular file that happens to sit at the path.
  auto server = ServerSocket::ListenUnix(path);
  EXPECT_FALSE(server.ok());
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0);  // File survived.
  std::remove(path.c_str());
}

TEST(SocketTest, ConnectToMissingEndpointsFails) {
  EXPECT_FALSE(ConnectUnix(TempSocketPath("never_bound")).ok());
  // Port 1 is privileged and almost certainly unbound on loopback.
  EXPECT_FALSE(ConnectTcp(1).ok());
}

}  // namespace
}  // namespace tps
