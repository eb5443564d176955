#ifndef TPS_SERVE_SERVER_H_
#define TPS_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/service.h"
#include "util/metrics.h"
#include "util/socket.h"
#include "util/statusor.h"

namespace tps {
namespace serve {

/// Where the server listens and how it bounds its clients. At least one
/// endpoint must be enabled; both may be (the same service answers on
/// each).
struct ServerOptions {
  /// Unix-domain socket path; empty disables the Unix endpoint.
  std::string unix_path;
  /// TCP port on 127.0.0.1; -1 disables the TCP endpoint, 0 auto-assigns
  /// (read back via tcp_port()).
  int tcp_port = -1;
  /// Upper bound on one request line, newline excluded; longer lines are
  /// discarded in bounded memory and answered with an InvalidArgument
  /// error reply (the session stays framed at the next newline).
  size_t max_line_bytes = 1 << 20;
  /// Connections open at once. A client over the cap is sent one
  /// Unavailable error line and closed.
  size_t max_connections = 256;
  /// A connection with no request in flight that moves no byte in either
  /// direction for this long is closed: an idle client, or one that
  /// stopped reading its replies.
  int64_t idle_timeout_ms = 60'000;
  /// Test-only hook: invoked on the loop thread immediately before it
  /// sends a connection's pending replies. Lets tests pin a reply until
  /// the peer has acted (e.g. closed its end) to make send-failure paths
  /// deterministic. Never set in production.
  std::function<void()> pre_reply_hook;
  /// Test-only hook: invoked on the loop thread after a connection was
  /// closed and forgotten. Lets tests wait for closed sessions instead of
  /// polling. Never set in production.
  std::function<void()> connection_done_hook;
};

/// NDJSON socket front end for a SelectionService (see protocol.h).
///
/// Threading model: one loop thread owns every socket through epoll — the
/// non-blocking listeners and each connection, which has one input and
/// one output buffer — plus one reload thread. The thread count does not
/// grow with the clients. The loop frames request lines in place and
/// answers ping, stats and shutdown itself. A select goes through
/// SelectionService::Dispatch, so socket traffic is subject to the same
/// admission control and deadlines as embedded callers: it runs inline on
/// the loop when a run slot is free and nothing is queued, and otherwise
/// queues for a worker, which appends the reply and wakes the loop through
/// an eventfd. When one wake-up brings several selects, all but the last
/// are queued so the workers run them in parallel. A reload is handed to
/// the reload thread, so the loop never waits on an artifact load.
///
/// Per connection, at most one request is in flight and no further input
/// is read until its reply is queued, so replies keep the order of their
/// requests; nor is input read while earlier replies are unsent, so a
/// client that never reads holds one reply's memory. Bounds:
/// ServerOptions' line cap, connection cap and idle timeout, whose nearest
/// deadline is the loop's only timer (no periodic tick).
///
/// Metrics (into the service's registry, resolved once here):
/// `serve.connections` gauge (current + peak) and
/// `serve.connections_{accepted,closed,refused,timed_out}` counters.
/// Accepted = closed + open; refused clients are never accepted.
///
/// Lifecycle: Start() binds and begins accepting. Wait() parks the owning
/// thread until a client sends `{"cmd":"shutdown"}` or Shutdown() is called
/// from another thread. Shutdown() (idempotent; also run by the destructor)
/// stops accepting, waits for every in-flight select and reload, tries
/// once to send what is pending, closes every connection and joins both
/// threads. The service outlives the server and is not owned by it.
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

  /// Blocks until shutdown is requested (wire command or Shutdown()).
  void Wait();

  /// Stops accepting, drains in-flight requests, disconnects all clients,
  /// joins both threads. Safe to call from any thread except the loop
  /// (the test hooks run there).
  void Shutdown();

 private:
  using Clock = std::chrono::steady_clock;
  struct Connection;

  SelectionServer(SelectionService* service,
                  std::vector<ServerSocket> listeners, int epoll_fd,
                  int wake_fd, const ServerOptions& options);

  void Loop();
  void AcceptAll(ServerSocket& listener);
  /// Moves one connection as far as it can go without blocking, within one
  /// turn: sends its pending replies, answers or dispatches its buffered
  /// lines, reads more. Closes it on EOF or a socket error.
  void Advance(Connection& connection);
  /// Consumes the next complete (or, after EOF, final partial) line of
  /// the input buffer, if any, and answers or dispatches it. Returns
  /// false when no line was consumed.
  bool TakeLine(Connection& connection);
  void HandleLine(Connection& connection, std::string_view line);
  /// Reads once. False on a socket error.
  bool Read(Connection& connection);
  /// Sends pending replies until done or the socket is full. False on a
  /// socket error.
  bool Flush(Connection& connection);
  /// Adds EPOLLOUT to the connection's events, or takes it out.
  void WatchOutput(Connection& connection, bool watch);
  void Close(Connection& connection);
  /// Marks I/O progress now: the idle deadline restarts.
  void Touch(Connection& connection);
  void DispatchSelect(Connection& connection, bool may_run_inline);
  /// Runs on whichever thread answered a select: appends the reply and
  /// hands the connection back to the loop.
  void FinishSelect(Connection* connection, const SelectionResponse& response);
  /// Hands a connection whose reply was appended off the loop back to it.
  void Post(Connection* connection);
  /// On the loop: takes back every posted connection and advances it.
  void TakePosted();
  /// Stops accepting and taking new lines; the loop returns once nothing
  /// is in flight.
  void Drain();
  void ExpireIdle();
  /// Milliseconds until the nearest idle deadline; -1 when none.
  int NextTimeoutMs() const;
  void ReloadLoop();
  /// Flags shutdown, releases Wait() and wakes the loop.
  void RequestShutdown();

  SelectionService* const service_;
  std::vector<ServerSocket> listeners_;
  const int epoll_fd_;
  const int wake_fd_;
  int tcp_port_ = 0;
  std::string unix_path_;
  const size_t max_line_bytes_;
  const size_t max_connections_;
  const Clock::duration idle_timeout_;
  const std::function<void()> pre_reply_hook_;
  const std::function<void()> connection_done_hook_;

  Gauge& connections_gauge_;
  Counter& accepted_counter_;
  Counter& closed_counter_;
  Counter& refused_counter_;
  Counter& timed_out_counter_;

  // Loop-thread state.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  /// Connections by last I/O progress, oldest first: the front holds the
  /// nearest idle deadline.
  std::list<Connection*> by_progress_;
  uint64_t next_token_ = 0;
  /// Selects and reloads being answered off the loop, or waiting in
  /// `deferred_` to run.
  size_t in_flight_ = 0;
  /// The latest select of the current wake-up; it runs inline once the
  /// wake-up's events are handled, after every earlier one was queued.
  Connection* deferred_ = nullptr;
  /// Tokens of connections to advance again after the next poll, which
  /// then does not block: one that used up its turn of lines, or one
  /// whose queued select was rejected at once.
  std::vector<uint64_t> again_;
  std::vector<uint64_t> turn_;
  Clock::time_point now_;
  bool draining_ = false;

  /// Connections whose replies were appended off the loop. The loop swaps
  /// the list with `taken_`, so both keep their capacity.
  std::mutex posted_mu_;
  std::vector<Connection*> posted_;
  std::vector<Connection*> taken_;

  std::mutex reload_mu_;
  std::condition_variable reload_ready_;
  std::deque<Connection*> reloads_;
  bool reload_stop_ = false;

  std::mutex mu_;
  std::condition_variable stopped_cv_;
  bool stopping_ = false;
  bool joined_ = false;

  // Declared last: both threads use every member above.
  std::thread reload_thread_;
  std::thread loop_thread_;
};

}  // namespace serve
}  // namespace tps

#endif  // TPS_SERVE_SERVER_H_
