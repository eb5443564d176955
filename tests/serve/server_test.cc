// End-to-end: SelectionServer + SelectionService over real sockets, the
// full NDJSON session lifecycle — connect, select, errors that keep the
// session open, stats, and the shutdown command.

#include "serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "store/model_store.h"
#include "util/json.h"
#include "util/socket.h"

namespace tps {
namespace serve {
namespace {

/// Counts the requests that joined the admission queue, through
/// ServiceOptions::queued_hook. WaitFor(n) returns true once n have, or
/// false after a generous timeout, so a queue depth that is never reached
/// fails the test instead of hanging it.
class QueueLatch {
 public:
  std::function<void()> Hook() {
    return [this] {
      std::lock_guard<std::mutex> lock(mu_);
      ++queued_;
      cv_.notify_all();
    };
  }
  bool WaitFor(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return queued_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int queued_ = 0;
};

class SelectionServerTest : public testing::Test {
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
  }

  std::string SocketPath(const std::string& tag) {
    return testing::TempDir() + "/tps_server_test_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
  }

  std::unique_ptr<SelectionServer> StartUnix(const std::string& path) {
    ServerOptions options;
    options.unix_path = path;
    auto server_or = SelectionServer::Start(service_.get(), options);
    EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
    return std::move(*server_or);
  }

  /// One request/reply exchange on an open connection.
  static std::string Exchange(Socket& socket, std::string* buffer,
                              const std::string& line) {
    EXPECT_TRUE(socket.SendAll(line + "\n").ok());
    auto reply = socket.RecvLine(buffer);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? *reply : "";
  }

  /// Starts a Unix-socket server over `service`.
  std::unique_ptr<SelectionServer> StartUnixFor(SelectionService* service,
                                                const std::string& path) {
    ServerOptions options;
    options.unix_path = path;
    auto server_or = SelectionServer::Start(service, options);
    EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
    return server_or.ok() ? std::move(*server_or) : nullptr;
  }

  /// The serve counters' conservation laws: every request has exactly one
  /// admission outcome, and every admitted request exactly one result.
  static void ExpectConservation(MetricsRegistry& metrics,
                                 const ServiceStats& stats) {
    EXPECT_EQ(stats.admitted + stats.rejected,
              metrics.counter("serve.requests").value());
    EXPECT_EQ(stats.completed + stats.deadline_exceeded + stats.errors,
              stats.admitted);
  }

  static ServiceArtifacts* artifacts_;
  MetricsRegistry metrics_;
  std::unique_ptr<SelectionService> service_;
};

ServiceArtifacts* SelectionServerTest::artifacts_ = nullptr;

TEST_F(SelectionServerTest, StartValidatesArguments) {
  ServerOptions options;
  options.unix_path = SocketPath("null_service");
  EXPECT_FALSE(SelectionServer::Start(nullptr, options).ok());
  // No endpoint at all.
  EXPECT_FALSE(SelectionServer::Start(service_.get(), ServerOptions()).ok());
}

TEST_F(SelectionServerTest, FullSessionOverUnixSocket) {
  const std::string path = SocketPath("session");
  auto server = StartUnix(path);
  ASSERT_NE(server, nullptr);

  auto client = ConnectUnix(path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::string buffer;

  // Ping.
  EXPECT_EQ(Exchange(*client, &buffer, R"({"cmd": "ping"})"), PongLine());

  // Cold select: misses, no hits.
  auto cold = ParseResponseLine(
      Exchange(*client, &buffer, R"({"target": "mnli"})"));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->status.ok()) << cold->status.ToString();
  EXPECT_EQ(cold->target, "mnli");
  EXPECT_FALSE(cold->selected_model.empty());
  EXPECT_GT(cold->cache_misses, 0u);
  EXPECT_EQ(cold->cache_hits, 0u);

  // A bad line gets an error reply but the session stays open.
  auto error = ParseResponseLine(Exchange(*client, &buffer, "not json"));
  EXPECT_TRUE(error.status().IsInvalidArgument())
      << error.status().ToString();
  auto missing = ParseResponseLine(
      Exchange(*client, &buffer, R"({"target": "no-such-dataset"})"));
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();

  // Warm select on the same (still-open) connection: hits, same answer.
  auto warm = ParseResponseLine(
      Exchange(*client, &buffer, R"({"target": "mnli", "trace": true})"));
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->status.ok());
  EXPECT_EQ(warm->selected_model, cold->selected_model);
  EXPECT_EQ(warm->selected_accuracy, cold->selected_accuracy);
  EXPECT_GT(warm->cache_hits, 0u);
  EXPECT_TRUE(warm->has_trace);

  // Stats reflect the session so far.
  auto stats = json::Parse(Exchange(*client, &buffer, R"({"cmd": "stats"})"));
  ASSERT_TRUE(stats.ok());
  const json::Value* inner = stats->Find("stats");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(*inner->GetNumber("completed"), 2.0);
  EXPECT_EQ(*inner->GetNumber("errors"), 1.0);  // The NotFound select.

  // Shutdown: ack arrives, then the server drains and Wait() returns.
  EXPECT_EQ(Exchange(*client, &buffer, R"({"cmd": "shutdown"})"),
            ShutdownAckLine());
  server->Wait();
  server->Shutdown();
  // The unix socket file is gone once the listener closed.
  EXPECT_FALSE(ConnectUnix(path).ok());
}

TEST_F(SelectionServerTest, EmptyLinesAreIgnored) {
  const std::string path = SocketPath("empty_lines");
  auto server = StartUnix(path);
  ASSERT_NE(server, nullptr);
  auto client = ConnectUnix(path);
  ASSERT_TRUE(client.ok());
  std::string buffer;
  // Blank lines produce no reply; the next real command still works.
  ASSERT_TRUE(client->SendAll("\n\n").ok());
  EXPECT_EQ(Exchange(*client, &buffer, R"({"cmd": "ping"})"), PongLine());
  server->Shutdown();
}

TEST_F(SelectionServerTest, ConcurrentConnectionsShareTheCache) {
  const std::string path = SocketPath("concurrent");
  auto server = StartUnix(path);
  ASSERT_NE(server, nullptr);

  // Warm the cache once so every concurrent client can hit.
  {
    auto warmup = ConnectUnix(path);
    ASSERT_TRUE(warmup.ok());
    std::string buffer;
    auto reply = ParseResponseLine(
        Exchange(*warmup, &buffer, R"({"target": "mnli"})"));
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->status.ok());
  }

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<std::string> selected(kClients);
  std::vector<uint64_t> hits(kClients, 0);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto client = ConnectUnix(path);
      ASSERT_TRUE(client.ok());
      std::string buffer;
      auto reply = ParseResponseLine(
          Exchange(*client, &buffer, R"({"target": "mnli"})"));
      ASSERT_TRUE(reply.ok());
      ASSERT_TRUE(reply->status.ok()) << reply->status.ToString();
      selected[i] = reply->selected_model;
      hits[i] = reply->cache_hits;
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(selected[i], selected[0]);
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_GT(hits[i], 0u) << "client " << i << " missed a warm cache";
  }
  server->Shutdown();
  EXPECT_EQ(service_->Stats().completed, 1u + kClients);
}

TEST_F(SelectionServerTest, TcpEndpointServes) {
  ServerOptions options;
  options.tcp_port = 0;  // Auto-assign.
  auto server_or = SelectionServer::Start(service_.get(), options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto& server = *server_or;
  ASSERT_GT(server->tcp_port(), 0);

  auto client = ConnectTcp(server->tcp_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::string buffer;
  EXPECT_EQ(Exchange(*client, &buffer, R"({"cmd": "ping"})"), PongLine());
  auto reply = ParseResponseLine(
      Exchange(*client, &buffer, R"({"target": "boolq", "k": 5})"));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();
  EXPECT_FALSE(reply->selected_model.empty());
  server->Shutdown();
}

// Regression (connection-thread leak): the server used to keep every
// connection's thread and socket until Shutdown, growing without bound on
// a long-lived server. Finished handlers must be reaped as accept loops
// turn over, so bookkeeping stays O(live connections).
TEST_F(SelectionServerTest, ConnectionBookkeepingStaysBounded) {
  const std::string path = SocketPath("reap");
  constexpr int kSessions = 20;
  // Opens once every session's handler is on the done-list. The probe's
  // own handler finishes at Shutdown and must not count it down again.
  std::latch sessions_done(kSessions);
  std::atomic<int> finished{0};
  ServerOptions options;
  options.unix_path = path;
  options.connection_done_hook = [&] {
    if (finished.fetch_add(1) < kSessions) sessions_done.count_down();
  };
  auto server_or = SelectionServer::Start(service_.get(), options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto& server = *server_or;

  for (int i = 0; i < kSessions; ++i) {
    auto client = ConnectUnix(path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    std::string buffer;
    EXPECT_EQ(Exchange(*client, &buffer, R"({"cmd": "ping"})"), PongLine());
    // Destructor closes the socket; the handler notices EOF and finishes.
  }
  sessions_done.wait();

  // The probe's accept reaps all 20 finished sessions before it registers
  // the probe, and the pong proves the probe is registered: only the live
  // probe connection remains.
  auto probe = ConnectUnix(path);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  std::string buffer;
  EXPECT_EQ(Exchange(*probe, &buffer, R"({"cmd": "ping"})"), PongLine());
  EXPECT_EQ(server->tracked_connections(), 1u)
      << "still tracking finished sessions after " << kSessions
      << " closed sessions";
  server->Shutdown();
}

// Regression (unbounded recv buffer): an unterminated or huge line used to
// be buffered in full. Now it is discarded at the cap, answered with an
// error reply, and the SESSION SURVIVES — framing recovers at the next
// newline.
TEST_F(SelectionServerTest, OversizedLineGetsErrorReplyAndSessionSurvives) {
  const std::string path = SocketPath("oversized");
  ServerOptions options;
  options.unix_path = path;
  options.max_line_bytes = 4096;
  auto server_or = SelectionServer::Start(service_.get(), options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto& server = *server_or;

  auto client = ConnectUnix(path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::string buffer;

  // 64 KiB of garbage on one line: error reply, not a dropped connection.
  const std::string big(64 * 1024, 'x');
  auto reply = ParseResponseLine(Exchange(*client, &buffer, big));
  EXPECT_TRUE(reply.status().IsInvalidArgument())
      << reply.status().ToString();

  // The stream re-framed on the newline: the next command still works.
  EXPECT_EQ(Exchange(*client, &buffer, R"({"cmd": "ping"})"), PongLine());

  // An oversized line followed by a valid one in the same burst: the
  // valid command is answered after the error (framing is exact, not
  // heuristic).
  ASSERT_TRUE(client->SendAll(big + "\n" + R"({"cmd": "ping"})" + "\n").ok());
  auto error_line = client->RecvLine(&buffer);
  ASSERT_TRUE(error_line.ok()) << error_line.status().ToString();
  EXPECT_TRUE(ParseResponseLine(*error_line).status().IsInvalidArgument());
  auto pong_line = client->RecvLine(&buffer);
  ASSERT_TRUE(pong_line.ok()) << pong_line.status().ToString();
  EXPECT_EQ(*pong_line, PongLine());
  server->Shutdown();
}

// Regression (lost shutdown): a client that sends `shutdown` and
// disconnects without reading the ack used to leave the server running
// forever — the failed ack send returned before RequestShutdown(). The
// shutdown must take effect once the command parsed, ack delivered or not.
TEST_F(SelectionServerTest, ShutdownHonoredWhenAckSendFails) {
  const std::string path = SocketPath("lost_ack");
  ServerOptions options;
  options.unix_path = path;
  // Hold every reply until the test releases it — so the client can close
  // its end BEFORE the ack send, making the send failure deterministic.
  std::promise<void> client_closed;
  std::shared_future<void> closed_future(client_closed.get_future());
  options.pre_reply_hook = [closed_future] { closed_future.wait(); };
  auto server_or = SelectionServer::Start(service_.get(), options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto& server = *server_or;

  {
    auto client = ConnectUnix(path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->SendAll("{\"cmd\": \"shutdown\"}\n").ok());
    // Close without reading the ack.
  }
  client_closed.set_value();

  // The server must still stop. (A regression hangs here and trips the
  // test timeout.)
  server->Wait();
  server->Shutdown();
}

TEST_F(SelectionServerTest, ReloadOverTheWire) {
  // Persist the suite artifacts in the model store a reload names.
  const std::string store_path = testing::TempDir() +
                                 "/tps_server_test_reload_" +
                                 std::to_string(::getpid()) + ".log";
  std::remove(store_path.c_str());
  {
    auto store = ModelStore::Open(store_path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store->PutPerformanceMatrix("nlp", artifacts_->matrix).ok());
    ASSERT_TRUE(store->PutClustering("nlp", artifacts_->clustering).ok());
  }

  const std::string path = SocketPath("reload");
  auto server = StartUnix(path);
  ASSERT_NE(server, nullptr);
  auto client = ConnectUnix(path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::string buffer;

  // Selects before the swap are tagged with version 1.
  auto before = ParseResponseLine(
      Exchange(*client, &buffer, R"({"target": "mnli"})"));
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->status.ok()) << before->status.ToString();
  EXPECT_EQ(before->artifact_version, 1u);

  // A reload naming a missing store fails with NotFound, changes nothing
  // and leaves no file behind.
  const std::string missing = store_path + ".missing";
  auto bad = ParseResponseLine(Exchange(
      *client, &buffer,
      R"({"cmd": "reload", "store": ")" + missing + "\"}"));
  EXPECT_TRUE(bad.status().IsNotFound()) << bad.status().ToString();
  EXPECT_EQ(service_->artifact_version(), 1u);
  EXPECT_FALSE(std::filesystem::exists(missing));

  // A real reload bumps the version; the session survives the swap.
  auto ack = json::Parse(Exchange(
      *client, &buffer,
      R"({"cmd": "reload", "store": ")" + store_path + "\"}"));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(*ack->GetBool("ok"), true);
  EXPECT_EQ(*ack->GetNumber("artifact_version"), 2.0);

  auto after = ParseResponseLine(
      Exchange(*client, &buffer, R"({"target": "mnli"})"));
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->status.ok()) << after->status.ToString();
  EXPECT_EQ(after->artifact_version, 2u);
  EXPECT_EQ(after->selected_model, before->selected_model);

  // Stats surface the swap.
  auto stats = json::Parse(Exchange(*client, &buffer, R"({"cmd": "stats"})"));
  ASSERT_TRUE(stats.ok());
  const json::Value* inner = stats->Find("stats");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(*inner->GetNumber("artifact_version"), 2.0);
  EXPECT_EQ(*inner->GetNumber("reloads"), 1.0);

  server->Shutdown();
  ::unlink(store_path.c_str());
}

TEST_F(SelectionServerTest, ShutdownWithLiveConnectionUnblocksIt) {
  const std::string path = SocketPath("live_conn");
  auto server = StartUnix(path);
  ASSERT_NE(server, nullptr);
  auto client = ConnectUnix(path);
  ASSERT_TRUE(client.ok());
  std::string buffer;
  // Prove the connection is established, then leave it idle.
  EXPECT_EQ(Exchange(*client, &buffer, R"({"cmd": "ping"})"), PongLine());
  // Shutdown must not hang on the idle connection's parked reader.
  server->Shutdown();
  // The peer observes the close as EOF.
  auto eof = client->RecvLine(&buffer);
  EXPECT_FALSE(eof.ok());
}

// A socket select is admission-controlled. With the only run slot held
// and a one-deep queue, the next connection's select queues, the one after
// is refused at once with the queue-full error line, and both admitted
// selects answer once the slot is released.
TEST_F(SelectionServerTest, SocketSelectsQueueThenRejectWhenFull) {
  MetricsRegistry metrics;
  std::atomic<bool> first{true};
  std::latch entered(1);
  std::latch release(1);
  ServiceOptions options;
  options.worker_threads = 1;
  options.max_queue = 1;
  options.metrics = &metrics;
  options.pre_handle_hook = [&] {
    if (first.exchange(false)) entered.count_down();
    release.wait();
  };
  QueueLatch queue;
  options.queued_hook = queue.Hook();
  auto service_or = SelectionService::Create(*artifacts_, options);
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  std::unique_ptr<SelectionService> service = std::move(*service_or);
  const std::string path = SocketPath("admission");
  auto server = StartUnixFor(service.get(), path);
  ASSERT_NE(server, nullptr);

  auto running = ConnectUnix(path);
  auto queued = ConnectUnix(path);
  auto refused = ConnectUnix(path);
  ASSERT_TRUE(running.ok() && queued.ok() && refused.ok());
  std::string running_buffer, queued_buffer, refused_buffer;

  ASSERT_TRUE(running->SendAll("{\"target\": \"mnli\"}\n").ok());
  entered.wait();  // The first select holds the only run slot.
  ASSERT_TRUE(queued->SendAll("{\"target\": \"boolq\"}\n").ok());
  if (!queue.WaitFor(1)) {
    release.count_down();  // Free the held slot so the test can end.
    FAIL() << "the second select never joined the queue";
  }
  EXPECT_EQ(service->queue_depth(), 1u);

  // The slot is still held, so this reply cannot have waited for it.
  auto rejected = ParseResponseLine(
      Exchange(*refused, &refused_buffer, R"({"target": "mnli"})"));
  EXPECT_TRUE(rejected.status().IsUnavailable())
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("queue full"),
            std::string::npos);

  release.count_down();
  auto expect_ok_reply = [](Socket& socket, std::string* buffer) {
    auto line = socket.RecvLine(buffer);
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto reply = ParseResponseLine(*line);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();
  };
  expect_ok_reply(*running, &running_buffer);
  expect_ok_reply(*queued, &queued_buffer);
  server->Shutdown();

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
  ExpectConservation(metrics, stats);
}

// Run slots bound connection threads and workers together: eight
// connections selecting at once never have more than worker_threads
// requests past admission and into the pipeline; the rest queue.
TEST_F(SelectionServerTest, RunSlotsBoundConcurrentSocketSelects) {
  constexpr int kClients = 8;
  constexpr int kSlots = 2;
  MetricsRegistry metrics;
  std::mutex mu;
  int inside = 0;
  int max_inside = 0;
  std::atomic<int> arrivals{0};
  std::latch slots_full(kSlots);
  std::latch release(1);
  ServiceOptions options;
  options.worker_threads = kSlots;
  options.metrics = &metrics;
  options.pre_handle_hook = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      max_inside = std::max(max_inside, ++inside);
    }
    if (arrivals.fetch_add(1) < kSlots) slots_full.count_down();
    release.wait();
    std::lock_guard<std::mutex> lock(mu);
    --inside;
  };
  QueueLatch queue;
  options.queued_hook = queue.Hook();
  auto service_or = SelectionService::Create(*artifacts_, options);
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  std::unique_ptr<SelectionService> service = std::move(*service_or);
  const std::string path = SocketPath("slots");
  auto server = StartUnixFor(service.get(), path);
  ASSERT_NE(server, nullptr);

  std::vector<std::thread> clients;
  std::atomic<int> ok_replies{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto client = ConnectUnix(path);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      std::string buffer;
      auto reply = ParseResponseLine(Exchange(
          *client, &buffer,
          i % 2 == 0 ? R"({"target": "mnli"})" : R"({"target": "boolq"})"));
      if (reply.ok() && reply->status.ok()) ok_replies.fetch_add(1);
    });
  }
  slots_full.wait();
  if (!queue.WaitFor(kClients - kSlots)) {
    release.count_down();  // Free the held slots so the clients finish.
    for (std::thread& client : clients) client.join();
    FAIL() << "fewer than " << kClients - kSlots << " selects queued";
  }
  EXPECT_EQ(service->queue_depth(), static_cast<size_t>(kClients - kSlots));
  {
    // Six selects wait in the queue while two hold the slots.
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(inside, kSlots);
  }
  release.count_down();
  for (std::thread& client : clients) client.join();
  server->Shutdown();

  EXPECT_EQ(ok_replies.load(), kClients);
  EXPECT_EQ(max_inside, kSlots);
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kClients));
  ExpectConservation(metrics, stats);
}

}  // namespace
}  // namespace serve
}  // namespace tps
