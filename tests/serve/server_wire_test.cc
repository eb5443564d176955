// Socket-level behaviour of the server's event loop: framing under every
// split of the byte stream, the line cap, pipelining order, peers that
// vanish or stop reading, and the connection bounds (cap, idle timeout,
// a flat thread count). Every test opens a handful of sockets at most.

#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "util/json.h"
#include "util/socket.h"

namespace tps {
namespace serve {
namespace {

constexpr char kPing[] = R"({"cmd": "ping"})";
constexpr char kSelect[] = R"({"target": "mnli", "k": 5})";

size_t ThreadCount() {
  size_t threads = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

class ServerWireTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    artifacts_ = new ServiceArtifacts(
        *ServiceArtifacts::Build(TaskDomain::kNLP));
  }

  void SetUp() override {
    ServiceOptions options;
    options.worker_threads = 2;
    options.metrics = &metrics_;
    auto service_or = SelectionService::Create(*artifacts_, options);
    ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
    service_ = std::move(*service_or);
    path_ = testing::TempDir() + "/tps_server_wire_test_" +
            std::to_string(::getpid()) + ".sock";
  }

  /// Starts a server on this test's Unix path with `options`' bounds and
  /// hooks.
  std::unique_ptr<SelectionServer> Start(ServerOptions options = {}) {
    options.unix_path = path_;
    auto server_or = SelectionServer::Start(service_.get(), options);
    EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
    return server_or.ok() ? std::move(*server_or) : nullptr;
  }

  Socket Connect() {
    auto socket = ConnectUnix(path_);
    EXPECT_TRUE(socket.ok()) << socket.status().ToString();
    return socket.ok() ? std::move(*socket) : Socket();
  }

  static std::string Recv(Socket& socket, std::string* buffer) {
    auto line = socket.RecvLine(buffer);
    EXPECT_TRUE(line.ok()) << line.status().ToString();
    return line.ok() ? *line : "";
  }

  static std::string Exchange(Socket& socket, std::string* buffer,
                              const std::string& line) {
    EXPECT_TRUE(socket.SendAll(line + "\n").ok());
    return Recv(socket, buffer);
  }

  /// The model a select reply names; fails the test on an error reply.
  static std::string Selected(const std::string& line) {
    auto reply = ParseResponseLine(line);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString() << ": " << line;
    return reply.ok() ? reply->selected_model : "";
  }

  static Status ReplyStatus(const std::string& line) {
    return ParseResponseLine(line).status();
  }

  uint64_t Count(const std::string& name) {
    return metrics_.counter(name).value();
  }

  static ServiceArtifacts* artifacts_;
  MetricsRegistry metrics_;
  std::unique_ptr<SelectionService> service_;
  std::string path_;
};

ServiceArtifacts* ServerWireTest::artifacts_ = nullptr;

TEST_F(ServerWireTest, StartRejectsZeroBounds) {
  for (int field = 0; field < 3; ++field) {
    ServerOptions options;
    options.unix_path = path_;
    if (field == 0) options.max_line_bytes = 0;
    if (field == 1) options.max_connections = 0;
    if (field == 2) options.idle_timeout_ms = 0;
    EXPECT_TRUE(SelectionServer::Start(service_.get(), options)
                    .status()
                    .IsInvalidArgument())
        << field;
  }
}

TEST_F(ServerWireTest, LinesSplitAtEveryOffsetAreFramed) {
  auto server = Start();
  ASSERT_NE(server, nullptr);
  Socket client = Connect();
  std::string buffer;
  const std::string expected = Selected(Exchange(client, &buffer, kSelect));
  ASSERT_FALSE(expected.empty());

  const std::string script =
      std::string(kPing) + "\n" + kSelect + "\n" + kPing + "\n";
  for (size_t split = 1; split < script.size(); ++split) {
    SCOPED_TRACE(split);
    ASSERT_TRUE(client.SendAll(script.substr(0, split)).ok());
    ASSERT_TRUE(client.SendAll(script.substr(split)).ok());
    EXPECT_EQ(Recv(client, &buffer), PongLine());
    EXPECT_EQ(Selected(Recv(client, &buffer)), expected);
    EXPECT_EQ(Recv(client, &buffer), PongLine());
  }
  server->Shutdown();
}

TEST_F(ServerWireTest, SelectSentOneByteAtATime) {
  auto server = Start();
  ASSERT_NE(server, nullptr);
  Socket client = Connect();
  std::string buffer;
  const std::string expected = Selected(Exchange(client, &buffer, kSelect));
  const std::string line = std::string(kSelect) + "\n";
  for (const char byte : line) {
    ASSERT_TRUE(client.SendAll(std::string(1, byte)).ok());
  }
  EXPECT_EQ(Selected(Recv(client, &buffer)), expected);
  server->Shutdown();
}

// Answers from the loop and a reload answered by the reload thread all
// come back in request order on one pipelined connection.
TEST_F(ServerWireTest, PipelinedLinesAreAnsweredInOrder) {
  auto server = Start();
  ASSERT_NE(server, nullptr);
  Socket client = Connect();
  const std::string missing_store =
      testing::TempDir() + "/tps_server_wire_test_missing.log";
  const std::string burst =
      std::string(kPing) + "\n" + kSelect + "\nnot json\n" +
      R"({"cmd": "reload", "store": ")" + missing_store + "\"}\n" +
      R"({"target": "boolq"})" + "\n" + R"({"cmd": "stats"})" + "\n" +
      kPing + "\n";
  ASSERT_TRUE(client.SendAll(burst).ok());
  std::string buffer;
  EXPECT_EQ(Recv(client, &buffer), PongLine());
  auto mnli = ParseResponseLine(Recv(client, &buffer));
  ASSERT_TRUE(mnli.ok()) << mnli.status().ToString();
  EXPECT_EQ(mnli->target, "mnli");
  EXPECT_TRUE(ReplyStatus(Recv(client, &buffer)).IsInvalidArgument());
  EXPECT_TRUE(ReplyStatus(Recv(client, &buffer)).IsNotFound());
  auto boolq = ParseResponseLine(Recv(client, &buffer));
  ASSERT_TRUE(boolq.ok()) << boolq.status().ToString();
  EXPECT_EQ(boolq->target, "boolq");
  auto stats = json::Parse(Recv(client, &buffer));
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->Find("stats"), nullptr);
  EXPECT_EQ(Recv(client, &buffer), PongLine());
  server->Shutdown();
}

TEST_F(ServerWireTest, LineCapDiscardsOversizedLineAndKeepsFraming) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  auto server = Start(options);
  ASSERT_NE(server, nullptr);
  Socket client = Connect();
  // One line far over the cap, then two normal lines in the same burst.
  const std::string big(256 * 1024, 'x');
  ASSERT_TRUE(client
                  .SendAll(big + "\n" + kPing + "\n" +
                           R"({"cmd": "stats"})" + "\n")
                  .ok());
  std::string buffer;
  // The oversized line is discarded (bounded memory) and answered with
  // InvalidArgument...
  EXPECT_TRUE(ReplyStatus(Recv(client, &buffer)).IsInvalidArgument());
  // ...and the stream stays framed: the following lines come out intact.
  EXPECT_EQ(Recv(client, &buffer), PongLine());
  auto stats = json::Parse(Recv(client, &buffer));
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->Find("stats"), nullptr);
  server->Shutdown();
}

TEST_F(ServerWireTest, LineCapExactBoundaryIsAccepted) {
  constexpr size_t kCap = 64;
  ServerOptions options;
  options.max_line_bytes = kCap;
  auto server = Start(options);
  ASSERT_NE(server, nullptr);
  Socket client = Connect();
  // A ping padded with JSON whitespace to `length` bytes.
  const auto padded_ping = [](size_t length) {
    const std::string head = R"({"cmd": "ping")";
    return head + std::string(length - head.size() - 1, ' ') + "}";
  };
  std::string buffer;
  // Exactly at the cap (payload bytes, excluding '\n'): accepted.
  EXPECT_EQ(Exchange(client, &buffer, padded_ping(kCap)), PongLine());
  // One byte over: rejected.
  EXPECT_TRUE(ReplyStatus(Exchange(client, &buffer, padded_ping(kCap + 1)))
                  .IsInvalidArgument());
  // Still framed afterwards.
  EXPECT_EQ(Exchange(client, &buffer, kPing), PongLine());
  server->Shutdown();
}

TEST_F(ServerWireTest, LineCapUnterminatedEofStillReportsOversize) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  auto server = Start(options);
  ASSERT_NE(server, nullptr);
  Socket client = Connect();
  // Over-cap garbage with NO terminator, then the write side hangs up.
  ASSERT_TRUE(client.SendAll(std::string(8 * 1024, 'z')).ok());
  ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
  std::string buffer;
  EXPECT_TRUE(ReplyStatus(Recv(client, &buffer)).IsInvalidArgument());
  // Nothing of the line is kept: the session ends with that answer.
  EXPECT_TRUE(client.RecvLine(&buffer).status().IsOutOfRange());
  server->Shutdown();
}

TEST_F(ServerWireTest, PeerClosingMidReplyLeavesTheServerServing) {
  std::promise<void> peer_gone;
  std::shared_future<void> gone(peer_gone.get_future());
  std::latch closed(1);
  std::atomic<bool> first_close{true};
  ServerOptions options;
  // Holds the first reply until its peer has hung up, so the send fails.
  options.pre_reply_hook = [gone] { gone.wait(); };
  options.connection_done_hook = [&] {
    if (first_close.exchange(false)) closed.count_down();
  };
  auto server = Start(options);
  ASSERT_NE(server, nullptr);
  {
    Socket doomed = Connect();
    ASSERT_TRUE(
        doomed.SendAll(R"({"target": "mnli", "trace": true})" "\n").ok());
  }
  peer_gone.set_value();
  closed.wait();
  EXPECT_EQ(Count("serve.connections_closed"), 1u);

  Socket client = Connect();
  std::string buffer;
  EXPECT_EQ(Exchange(client, &buffer, kPing), PongLine());
  EXPECT_FALSE(Selected(Exchange(client, &buffer, kSelect)).empty());
  server->Shutdown();
}

// A client that floods requests and never reads its replies fills its
// socket; the loop then stops reading it rather than wait on it, and every
// other connection is still answered.
TEST_F(ServerWireTest, ClientThatNeverReadsDelaysNoOtherConnection) {
  auto server = Start();
  ASSERT_NE(server, nullptr);
  Socket hog = Connect();
  std::string flood;
  for (int i = 0; i < 200'000; ++i) flood += std::string(kPing) + "\n";
  // Blocks once the server stops reading; fails when the server closes.
  std::thread flooder([&] { (void)hog.SendAll(flood); });

  Socket client = Connect();
  std::string buffer;
  EXPECT_FALSE(Selected(Exchange(client, &buffer, kSelect)).empty());
  EXPECT_EQ(Exchange(client, &buffer, kPing), PongLine());
  server->Shutdown();
  flooder.join();
}

TEST_F(ServerWireTest, IdleConnectionIsClosedAfterTheTimeout) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  auto server = Start(options);
  ASSERT_NE(server, nullptr);
  Socket client = Connect();
  std::string buffer;
  // Parks until the server closes the idle session.
  EXPECT_TRUE(client.RecvLine(&buffer).status().IsOutOfRange());
  EXPECT_EQ(Count("serve.connections_timed_out"), 1u);
  EXPECT_EQ(Count("serve.connections_closed"), 1u);
  server->Shutdown();
}

// A client whose pending replies make no send progress for the timeout is
// closed too: it holds neither a thread nor its connection for ever.
TEST_F(ServerWireTest, StalledReaderIsClosedAfterTheTimeout) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  auto server = Start(options);
  ASSERT_NE(server, nullptr);
  Socket hog = Connect();
  std::string flood;
  for (int i = 0; i < 200'000; ++i) flood += std::string(kPing) + "\n";
  // Returns an error once the server gives up on the stalled reader.
  EXPECT_FALSE(hog.SendAll(flood).ok());
  EXPECT_EQ(Count("serve.connections_timed_out"), 1u);
  server->Shutdown();
}

// Cap 4 with 8 clients: four are served, four get one Unavailable line and
// EOF. Connection counts conserve: accepted = closed + open, and refused
// clients are never accepted.
TEST_F(ServerWireTest, ConnectionCapRefusesTheExcessAndCountsConserve) {
  constexpr int kCap = 4;
  std::latch served_closed(kCap);
  std::atomic<int> closes{0};
  ServerOptions options;
  options.max_connections = kCap;
  options.connection_done_hook = [&] {
    if (closes.fetch_add(1) < kCap) served_closed.count_down();
  };
  auto server = Start(options);
  ASSERT_NE(server, nullptr);
  const auto conserved = [&](double open) {
    EXPECT_EQ(Count("serve.connections_accepted"),
              Count("serve.connections_closed") + static_cast<uint64_t>(open));
    EXPECT_EQ(metrics_.gauge("serve.connections").value(), open);
  };

  std::vector<Socket> served;
  std::string buffer;
  for (int i = 0; i < kCap; ++i) {
    served.push_back(Connect());
    EXPECT_EQ(Exchange(served.back(), &buffer, kPing), PongLine());
  }
  for (int i = 0; i < kCap; ++i) {
    Socket refused = Connect();
    std::string refused_buffer;
    const Status status = ReplyStatus(Recv(refused, &refused_buffer));
    EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
    EXPECT_TRUE(refused.RecvLine(&refused_buffer).status().IsOutOfRange());
  }
  EXPECT_EQ(Count("serve.connections_refused"), static_cast<uint64_t>(kCap));
  EXPECT_EQ(Count("serve.connections_accepted"), static_cast<uint64_t>(kCap));
  conserved(kCap);
  // The refusals cost the served clients nothing.
  for (Socket& socket : served) {
    EXPECT_EQ(Exchange(socket, &buffer, kPing), PongLine());
  }

  served.clear();
  served_closed.wait();
  conserved(0);
  // Closing freed the cap.
  Socket late = Connect();
  EXPECT_EQ(Exchange(late, &buffer, kPing), PongLine());
  conserved(1);
  EXPECT_EQ(metrics_.gauge("serve.connections").max_value(), kCap);
  server->Shutdown();
  conserved(0);
}

TEST_F(ServerWireTest, ThreadCountStaysFlatAsClientsConnect) {
  auto server = Start();
  ASSERT_NE(server, nullptr);
  const size_t threads = ThreadCount();
  std::vector<Socket> clients;
  std::string buffer;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(Connect());
    EXPECT_EQ(Exchange(clients.back(), &buffer, kPing), PongLine());
    EXPECT_EQ(ThreadCount(), threads) << "after client " << i;
  }
  server->Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace tps
