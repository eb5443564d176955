#ifndef TPS_SERVE_SERVER_H_
#define TPS_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/service.h"
#include "util/socket.h"
#include "util/statusor.h"

namespace tps {
namespace serve {

/// Where the server listens. At least one endpoint must be enabled; both
/// may be (the same service answers on each).
struct ServerOptions {
  /// Unix-domain socket path; empty disables the Unix endpoint.
  std::string unix_path;
  /// TCP port on 127.0.0.1; -1 disables the TCP endpoint, 0 auto-assigns
  /// (read back via tcp_port()).
  int tcp_port = -1;
  /// Upper bound on one request line; longer lines are discarded and
  /// answered with an InvalidArgument error reply (the session survives).
  size_t max_line_bytes = 1 << 20;
  /// Test-only hook: invoked by a connection thread immediately before it
  /// sends a reply line. Lets tests pin the reply until the peer has
  /// acted (e.g. closed its end) to make send-failure paths
  /// deterministic. Never set in production.
  std::function<void()> pre_reply_hook;
};

/// NDJSON socket front end for a SelectionService (see protocol.h).
///
/// Threading model: one blocking accept-loop thread per endpoint plus one
/// blocking thread per live connection — no readiness polling, which keeps
/// the stack simple and sanitizer-clean. Selects are routed through
/// SelectionService::Serve, so socket traffic is subject to the same
/// admission control and deadlines as embedded callers: an admitted select
/// runs on its connection thread when a run slot is free and nothing is
/// queued, and otherwise waits for a worker. ping/stats answer inline. A
/// reload runs on the connection thread — artifact load + validation never
/// touch the serving path.
///
/// Connection bookkeeping: each connection self-registers on a done-list
/// when its handler finishes; the accept loops join those threads and drop
/// their sockets before taking the next client, so a long-lived server
/// that has answered N connections tracks O(live) state, not O(N).
/// Shutdown() joins whatever is left.
///
/// Lifecycle: Start() binds and begins accepting. Wait() parks the owning
/// thread until a client sends `{"cmd":"shutdown"}` or Shutdown() is called
/// from another thread. Shutdown() (idempotent; also run by the destructor)
/// stops accepting, unblocks every connection with ::shutdown, and joins
/// all threads. The service outlives the server and is not owned by it.
class SelectionServer {
 public:
  static StatusOr<std::unique_ptr<SelectionServer>> Start(
      SelectionService* service, const ServerOptions& options);

  ~SelectionServer();

  SelectionServer(const SelectionServer&) = delete;
  SelectionServer& operator=(const SelectionServer&) = delete;

  /// Actual TCP port (meaningful when the TCP endpoint is enabled;
  /// resolves port 0 auto-assignment). 0 when TCP is disabled.
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return unix_path_; }

  /// Connections currently tracked (live handlers plus finished ones not
  /// yet reaped by an accept loop). Tests assert this stays bounded over
  /// many sequential sessions.
  size_t tracked_connections() const;

  /// Blocks until shutdown is requested (wire command or Shutdown()).
  void Wait();

  /// Stops accepting, disconnects all clients, joins all threads. Safe to
  /// call from any thread except a connection handler (handlers request
  /// shutdown instead; the thread parked in Wait() — or the destructor —
  /// performs the join).
  void Shutdown();

 private:
  /// One tracked connection: the handler thread and its socket (the socket
  /// is shared with the handler; RequestShutdown pokes it to unblock a
  /// parked recv).
  struct Connection {
    std::thread thread;
    std::shared_ptr<Socket> socket;
  };

  SelectionServer(SelectionService* service,
                  std::vector<ServerSocket> listeners,
                  const ServerOptions& options);

  void AcceptLoop(ServerSocket* listener);
  void HandleConnection(std::shared_ptr<Socket> socket);
  /// Joins finished connection threads and forgets their sockets. Called
  /// with `mu_` NOT held (joining under the registry lock would deadlock
  /// against a handler trying to mark itself done).
  void ReapFinishedConnections();
  /// Flags shutdown and unblocks Wait()/Accept() without joining (callable
  /// from a connection handler).
  void RequestShutdown();

  SelectionService* const service_;
  std::vector<ServerSocket> listeners_;
  int tcp_port_ = 0;
  std::string unix_path_;
  const size_t max_line_bytes_;
  const std::function<void()> pre_reply_hook_;

  mutable std::mutex mu_;
  std::condition_variable stopped_cv_;
  bool stopping_ = false;
  bool joined_ = false;
  std::vector<std::thread> accept_threads_;
  /// Live + not-yet-reaped connections, keyed by a monotonic id.
  std::unordered_map<uint64_t, Connection> connections_;
  /// Ids whose handlers have returned; their threads are joinable and
  /// their sockets droppable. Drained by ReapFinishedConnections().
  std::vector<uint64_t> finished_;
  uint64_t next_connection_id_ = 0;
};

}  // namespace serve
}  // namespace tps

#endif  // TPS_SERVE_SERVER_H_
