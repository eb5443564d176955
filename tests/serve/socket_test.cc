// POSIX socket wrappers: Unix + TCP listen/connect, line framing across
// partial reads, EOF handling, and Shutdown() unblocking a parked Accept.

#include "util/socket.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
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

  auto conn = server->Accept();
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
  auto conn = server->Accept();
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

  auto conn = server->Accept();
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
  auto conn = server->Accept();
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
  auto conn = server->Accept();
  ASSERT_TRUE(conn.ok());
  std::string buffer;
  auto line = conn->RecvLine(&buffer);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(*line, "no newline here");
  client_thread.join();
}

TEST(SocketTest, RecvLineCapDiscardsOversizedLineAndKeepsFraming) {
  const std::string path = TempSocketPath("cap");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok());

  std::thread client_thread([&path] {
    auto client = ConnectUnix(path);
    ASSERT_TRUE(client.ok());
    // One line far over the cap, then two normal lines in the same burst.
    const std::string big(256 * 1024, 'x');
    ASSERT_TRUE(client->SendAll(big + "\nafter\nthe flood\n").ok());
  });

  auto conn = server->Accept();
  ASSERT_TRUE(conn.ok());
  std::string buffer;
  constexpr size_t kCap = 1024;
  // The oversized line is discarded (bounded memory), reported as
  // InvalidArgument...
  auto big_line = conn->RecvLine(&buffer, kCap);
  EXPECT_FALSE(big_line.ok());
  EXPECT_TRUE(big_line.status().IsInvalidArgument())
      << big_line.status().ToString();
  // ...and the stream stays framed: the following lines come out intact.
  EXPECT_EQ(*conn->RecvLine(&buffer, kCap), "after");
  EXPECT_EQ(*conn->RecvLine(&buffer, kCap), "the flood");
  client_thread.join();
}

TEST(SocketTest, RecvLineCapExactBoundaryIsAccepted) {
  const std::string path = TempSocketPath("cap_boundary");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok());

  constexpr size_t kCap = 64;
  std::thread client_thread([&path] {
    auto client = ConnectUnix(path);
    ASSERT_TRUE(client.ok());
    // Exactly at the cap (payload bytes, excluding '\n'): accepted.
    ASSERT_TRUE(client->SendAll(std::string(kCap, 'a') + "\n").ok());
    // One byte over: rejected.
    ASSERT_TRUE(client->SendAll(std::string(kCap + 1, 'b') + "\n").ok());
    // Still framed afterwards.
    ASSERT_TRUE(client->SendAll("ok\n").ok());
  });

  auto conn = server->Accept();
  ASSERT_TRUE(conn.ok());
  std::string buffer;
  EXPECT_EQ(*conn->RecvLine(&buffer, kCap), std::string(kCap, 'a'));
  EXPECT_TRUE(conn->RecvLine(&buffer, kCap).status().IsInvalidArgument());
  EXPECT_EQ(*conn->RecvLine(&buffer, kCap), "ok");
  client_thread.join();
}

TEST(SocketTest, RecvLineCapUnterminatedEofStillReportsOversize) {
  const std::string path = TempSocketPath("cap_eof");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok());

  std::thread client_thread([&path] {
    auto client = ConnectUnix(path);
    ASSERT_TRUE(client.ok());
    // Over-cap garbage with NO terminator, then hang up.
    ASSERT_TRUE(client->SendAll(std::string(8 * 1024, 'z')).ok());
  });

  auto conn = server->Accept();
  ASSERT_TRUE(conn.ok());
  std::string buffer;
  auto line = conn->RecvLine(&buffer, 1024);
  EXPECT_FALSE(line.ok());
  EXPECT_TRUE(line.status().IsInvalidArgument()) << line.status().ToString();
  EXPECT_TRUE(buffer.empty());  // Nothing retained.
  client_thread.join();
}

TEST(SocketTest, ShutdownUnblocksParkedAccept) {
  const std::string path = TempSocketPath("unblock");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok());

  // Shutdown must stop the acceptor whether it is already parked in
  // accept(2) or only about to enter it (then accept fails at once), so
  // the latch only has to order Shutdown after the acceptor has started.
  std::atomic<bool> accept_returned{false};
  std::latch accepting(1);
  std::thread acceptor([&] {
    accepting.count_down();
    auto conn = server->Accept();  // Parks: no client will connect.
    EXPECT_FALSE(conn.ok());
    EXPECT_TRUE(conn.status().IsUnavailable()) << conn.status().ToString();
    accept_returned.store(true);
  });
  accepting.wait();
  EXPECT_FALSE(accept_returned.load());
  server->Shutdown();
  acceptor.join();
  EXPECT_TRUE(accept_returned.load());
  // After Shutdown every further Accept fails fast too.
  EXPECT_FALSE(server->Accept().ok());
}

TEST(SocketTest, ShutdownBothUnblocksParkedReader) {
  const std::string path = TempSocketPath("reader");
  auto server = ServerSocket::ListenUnix(path);
  ASSERT_TRUE(server.ok());

  auto client = ConnectUnix(path);
  ASSERT_TRUE(client.ok());
  auto conn = server->Accept();
  ASSERT_TRUE(conn.ok());

  // As above: a recv entered before or after ShutdownBoth reads EOF.
  std::latch reading(1);
  std::thread reader([&] {
    reading.count_down();
    std::string buffer;
    auto line = conn->RecvLine(&buffer);  // Parks: client sends nothing.
    EXPECT_FALSE(line.ok());  // Reads as EOF once shut down.
  });
  reading.wait();
  conn->ShutdownBoth();
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
  auto conn = second->Accept();
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
