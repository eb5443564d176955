#include "serve/server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "serve/protocol.h"
#include "util/logging.h"

namespace tps {
namespace serve {

namespace {

/// epoll token of the wake-up eventfd. Listener i is 1 + i; connections
/// count up from 1 + the listener count and are never reused, so an event
/// for a connection closed earlier in the same wake-up finds nothing.
constexpr uint64_t kWakeToken = 0;
/// Bytes asked of one recv.
constexpr size_t kReadChunk = 16 * 1024;
constexpr int kMaxEvents = 64;
/// Lines one connection may take per turn before the others get theirs.
constexpr int kLinesPerTurn = 32;
/// What every connection is watched for. EPOLLOUT is added only while
/// replies wait for socket space: watched always, every reply the client
/// reads would wake the loop.
constexpr uint32_t kConnectionEvents = EPOLLIN | EPOLLRDHUP | EPOLLET;

/// The server whose loop the calling thread runs, if any. Tells a select
/// answered inline on the loop from one answered by a worker.
thread_local const SelectionServer* current_loop = nullptr;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

void AppendErrorLine(const Status& status, std::string* out) {
  AppendError(status, out);
  out->push_back('\n');
}

void WakeLoop(int wake_fd) {
  const uint64_t one = 1;
  // Fails only if the counter would overflow, and then it is set anyway.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
}

}  // namespace

struct SelectionServer::Connection {
  Connection(uint64_t token, Socket socket)
      : token(token), socket(std::move(socket)) {}

  const uint64_t token;
  Socket socket;
  /// Received bytes; [0, in_start) are lines already taken.
  std::string in;
  size_t in_start = 0;
  /// Dropping an oversized line's bytes until its newline ends it.
  bool discarding = false;
  /// Edge-triggered readiness: set by an event, cleared once a recv or
  /// send comes back short or EAGAIN.
  bool readable = true;
  bool writable = true;
  /// EPOLLOUT is in the connection's epoll events.
  bool watching_output = false;
  /// An event flagged the peer's EOF. Then a short read does not mean the
  /// socket is drained: the EOF still has to be read.
  bool hangup_seen = false;
  /// The peer sent EOF: no request follows what is buffered.
  bool peer_closed = false;
  /// A select or reload is being answered. Until the connection is handed
  /// back, `out`, `select` and `reload` belong to its answerer.
  bool in_flight = false;
  /// Replies; [0, out_sent) are sent.
  std::string out;
  size_t out_sent = 0;
  SelectionRequest select;
  ArtifactPaths reload;
  Clock::time_point last_progress;
  std::list<Connection*>::iterator progress_pos;
};

StatusOr<std::unique_ptr<SelectionServer>> SelectionServer::Start(
    SelectionService* service, const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("service must not be null");
  }
  if (options.unix_path.empty() && options.tcp_port < 0) {
    return Status::InvalidArgument(
        "at least one endpoint is required (unix_path or tcp_port)");
  }
  if (options.max_line_bytes == 0) {
    return Status::InvalidArgument("max_line_bytes must be >= 1");
  }
  if (options.max_connections == 0) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  if (options.idle_timeout_ms < 1 ||
      options.idle_timeout_ms > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument(
        "idle_timeout_ms must be in [1, 2^31 - 1]");
  }
  std::vector<ServerSocket> listeners;
  if (!options.unix_path.empty()) {
    TPS_ASSIGN_OR_RETURN(ServerSocket listener,
                         ServerSocket::ListenUnix(options.unix_path));
    listeners.push_back(std::move(listener));
  }
  if (options.tcp_port >= 0) {
    TPS_ASSIGN_OR_RETURN(ServerSocket listener,
                         ServerSocket::ListenTcp(options.tcp_port));
    listeners.push_back(std::move(listener));
  }
  for (ServerSocket& listener : listeners) {
    if (::fcntl(listener.fd(), F_SETFL, O_NONBLOCK) != 0) {
      return Errno("fcntl(O_NONBLOCK)");
    }
  }
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return Errno("epoll_create1");
  const int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) {
    const Status status = Errno("eventfd");
    ::close(epoll_fd);
    return status;
  }
  const auto watch = [epoll_fd](int fd, uint32_t events, uint64_t token) {
    epoll_event event{};
    event.events = events;
    event.data.u64 = token;
    return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) == 0;
  };
  bool watched = watch(wake_fd, EPOLLIN, kWakeToken);
  for (size_t i = 0; watched && i < listeners.size(); ++i) {
    watched = watch(listeners[i].fd(), EPOLLIN | EPOLLET, 1 + i);
  }
  if (!watched) {
    const Status status = Errno("epoll_ctl");
    ::close(wake_fd);
    ::close(epoll_fd);
    return status;
  }
  return std::unique_ptr<SelectionServer>(new SelectionServer(
      service, std::move(listeners), epoll_fd, wake_fd, options));
}

SelectionServer::SelectionServer(SelectionService* service,
                                 std::vector<ServerSocket> listeners,
                                 int epoll_fd, int wake_fd,
                                 const ServerOptions& options)
    : service_(service),
      listeners_(std::move(listeners)),
      epoll_fd_(epoll_fd),
      wake_fd_(wake_fd),
      max_line_bytes_(options.max_line_bytes),
      max_connections_(options.max_connections),
      idle_timeout_(std::chrono::milliseconds(options.idle_timeout_ms)),
      pre_reply_hook_(options.pre_reply_hook),
      connection_done_hook_(options.connection_done_hook),
      connections_gauge_(service->metrics()->gauge("serve.connections")),
      accepted_counter_(
          service->metrics()->counter("serve.connections_accepted")),
      closed_counter_(service->metrics()->counter("serve.connections_closed")),
      refused_counter_(
          service->metrics()->counter("serve.connections_refused")),
      timed_out_counter_(
          service->metrics()->counter("serve.connections_timed_out")),
      next_token_(1 + listeners_.size()) {
  for (ServerSocket& listener : listeners_) {
    if (!listener.unix_path().empty()) unix_path_ = listener.unix_path();
    if (listener.port() > 0) tcp_port_ = listener.port();
  }
  reload_thread_ = std::thread([this] { ReloadLoop(); });
  loop_thread_ = std::thread([this] { Loop(); });
}

SelectionServer::~SelectionServer() {
  Shutdown();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void SelectionServer::Loop() {
  current_loop = this;
  epoll_event events[kMaxEvents];
  for (;;) {
    const int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                                   again_.empty() ? NextTimeoutMs() : 0);
    TPS_CHECK(ready >= 0 || errno == EINTR);
    now_ = Clock::now();
    turn_.swap(again_);
    for (const uint64_t token : turn_) {
      const auto it = connections_.find(token);
      if (it != connections_.end()) Advance(*it->second);
    }
    turn_.clear();
    for (int i = 0; i < ready; ++i) {
      const uint64_t token = events[i].data.u64;
      if (token == kWakeToken) {
        TakePosted();
        continue;
      }
      if (token <= listeners_.size()) {
        if (!draining_) AcceptAll(listeners_[token - 1]);
        continue;
      }
      const auto it = connections_.find(token);
      if (it == connections_.end()) continue;
      Connection& connection = *it->second;
      if (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        connection.readable = true;
      }
      if (events[i].events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        connection.hangup_seen = true;
      }
      if (events[i].events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) {
        connection.writable = true;
      }
      Advance(connection);
    }
    // Every other select of this wake-up is queued by now; the latest runs
    // here unless the run slots are busy. Its connection may then hold
    // another pipelined select, which takes its place.
    while (deferred_ != nullptr) {
      Connection& connection = *std::exchange(deferred_, nullptr);
      DispatchSelect(connection, /*may_run_inline=*/true);
      Advance(connection);
    }
    ExpireIdle();
    if (draining_ && in_flight_ == 0) break;
  }
  while (!connections_.empty()) {
    Connection& connection = *connections_.begin()->second;
    Flush(connection);  // One try: a slow reader does not hold up Shutdown.
    Close(connection);
  }
  current_loop = nullptr;
}

void SelectionServer::AcceptAll(ServerSocket& listener) {
  for (;;) {
    const int fd = ::accept4(listener.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EAGAIN: every pending client is in. Out of fds: the rest wait in
      // the backlog for the next connection's edge.
      return;
    }
    Socket socket(fd);
    if (connections_.size() >= max_connections_) {
      refused_counter_.Increment();
      std::string line;
      AppendErrorLine(Status::Unavailable(
                          "connection limit (" +
                          std::to_string(max_connections_) +
                          ") reached; retry later"),
                      &line);
      // Best effort: a fresh socket's send buffer takes one short line.
      [[maybe_unused]] const ssize_t sent =
          ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      continue;  // `socket` closes.
    }
    const uint64_t token = next_token_++;
    epoll_event event{};
    event.events = kConnectionEvents;
    event.data.u64 = token;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) continue;
    auto connection = std::make_unique<Connection>(token, std::move(socket));
    connection->last_progress = now_;
    connection->progress_pos =
        by_progress_.insert(by_progress_.end(), connection.get());
    connections_.emplace(token, std::move(connection));
    accepted_counter_.Increment();
    connections_gauge_.Set(static_cast<double>(connections_.size()));
    connections_gauge_.SetMax(static_cast<double>(connections_.size()));
  }
}

void SelectionServer::Advance(Connection& connection) {
  for (int lines = 0;;) {
    if (connection.in_flight) return;
    if (!Flush(connection)) {
      Close(connection);
      return;
    }
    // No line is taken while replies are unsent or the server drains.
    if (!connection.out.empty() || draining_) return;
    if (lines == kLinesPerTurn) {
      // A client that pipelines and reads fast yields the loop in turn.
      again_.push_back(connection.token);
      return;
    }
    if (TakeLine(connection)) {
      ++lines;
      continue;
    }
    if (connection.peer_closed) {
      Close(connection);
      return;
    }
    if (!connection.readable) return;
    if (!Read(connection)) {
      Close(connection);
      return;
    }
  }
}

bool SelectionServer::TakeLine(Connection& connection) {
  const std::string_view pending =
      std::string_view(connection.in).substr(connection.in_start);
  const size_t newline = pending.find('\n');
  const bool complete = newline != std::string_view::npos;
  // EOF ends a final unterminated line.
  const size_t length = complete ? newline : pending.size();
  if (connection.discarding || length > max_line_bytes_) {
    // An oversized line is dropped as it arrives and answered once its
    // newline (or EOF) ends it, so it costs bounded memory and the
    // session stays framed.
    if (complete) {
      connection.in_start += newline + 1;
    } else {
      connection.in.clear();
      connection.in_start = 0;
    }
    connection.discarding = !complete && !connection.peer_closed;
    if (connection.discarding) return false;
    AppendErrorLine(
        Status::InvalidArgument("line exceeds " +
                                std::to_string(max_line_bytes_) + " bytes"),
        &connection.out);
    return true;
  }
  if (!complete && (!connection.peer_closed || pending.empty())) {
    return false;
  }
  connection.in_start += complete ? newline + 1 : length;
  HandleLine(connection, pending.substr(0, length));
  return true;
}

void SelectionServer::HandleLine(Connection& connection,
                                 std::string_view line) {
  if (line.empty()) return;  // Blank keep-alive lines get no reply.
  StatusOr<WireRequest> request = ParseRequestLine(line);
  if (!request.ok()) {
    // One bad line never tears down the session.
    AppendErrorLine(request.status(), &connection.out);
    return;
  }
  switch (request->command) {
    case WireCommand::kPing:
      connection.out += PongLine();
      break;
    case WireCommand::kStats:
      connection.out += StatsToLine(service_->Stats());
      break;
    case WireCommand::kShutdown:
      // Accepted once parsed: a client that sends `shutdown` and
      // disconnects without reading the ack still stops the server.
      connection.out += ShutdownAckLine();
      RequestShutdown();
      Drain();
      break;
    case WireCommand::kReload:
      connection.reload = std::move(request->reload);
      connection.in_flight = true;
      ++in_flight_;
      {
        std::lock_guard<std::mutex> lock(reload_mu_);
        reloads_.push_back(&connection);
      }
      reload_ready_.notify_one();
      return;
    case WireCommand::kSelect:
      connection.select = std::move(request->select);
      connection.in_flight = true;
      ++in_flight_;
      // Only the latest select of a wake-up may run inline; an earlier one
      // queues, so under load the workers run them in parallel.
      if (deferred_ != nullptr) {
        Connection& earlier = *deferred_;
        DispatchSelect(earlier, /*may_run_inline=*/false);
        // A rejection is answered at once; that connection goes on next
        // turn.
        if (!earlier.in_flight) again_.push_back(earlier.token);
      }
      deferred_ = &connection;
      return;
  }
  connection.out.push_back('\n');
}

bool SelectionServer::Read(Connection& connection) {
  if (connection.in_start == connection.in.size()) {
    connection.in.clear();
  } else {
    connection.in.erase(0, connection.in_start);
  }
  connection.in_start = 0;
  char chunk[kReadChunk];
  const ssize_t n = ::recv(connection.socket.fd(), chunk, sizeof(chunk), 0);
  if (n < 0) {
    if (errno == EINTR) return true;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      connection.readable = false;
      return true;
    }
    return false;
  }
  if (n == 0) {
    connection.peer_closed = true;
    return true;
  }
  connection.in.append(chunk, static_cast<size_t>(n));
  Touch(connection);
  // A short read drained the socket: the next byte raises a new edge.
  if (static_cast<size_t>(n) < sizeof(chunk) && !connection.hangup_seen) {
    connection.readable = false;
  }
  return true;
}

bool SelectionServer::Flush(Connection& connection) {
  if (connection.out.empty() || !connection.writable) return true;
  if (pre_reply_hook_) pre_reply_hook_();
  while (connection.out_sent < connection.out.size()) {
    const size_t left = connection.out.size() - connection.out_sent;
    const ssize_t n =
        ::send(connection.socket.fd(),
               connection.out.data() + connection.out_sent, left,
               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;  // Gone.
    } else {
      connection.out_sent += static_cast<size_t>(n);
      Touch(connection);
      if (static_cast<size_t>(n) == left) break;
    }
    // The socket is full (a short write says so too): freed space raises
    // an EPOLLOUT edge once it is watched.
    connection.writable = false;
    WatchOutput(connection, true);
    return true;
  }
  connection.out.clear();  // Keeps its capacity for the next reply.
  connection.out_sent = 0;
  WatchOutput(connection, false);
  return true;
}

void SelectionServer::WatchOutput(Connection& connection, bool watch) {
  if (connection.watching_output == watch) return;
  epoll_event event{};
  event.events = kConnectionEvents | (watch ? EPOLLOUT : 0u);
  event.data.u64 = connection.token;
  // Fails only on a bad fd; the idle timeout then closes the connection.
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection.socket.fd(),
                  &event) == 0) {
    connection.watching_output = watch;
  }
}

void SelectionServer::Close(Connection& connection) {
  by_progress_.erase(connection.progress_pos);
  const uint64_t token = connection.token;
  // Destroys the connection; closing its socket drops it from epoll.
  connections_.erase(token);
  closed_counter_.Increment();
  connections_gauge_.Set(static_cast<double>(connections_.size()));
  if (connection_done_hook_) connection_done_hook_();
}

void SelectionServer::Touch(Connection& connection) {
  connection.last_progress = now_;
  by_progress_.splice(by_progress_.end(), by_progress_,
                      connection.progress_pos);
}

void SelectionServer::DispatchSelect(Connection& connection,
                                     bool may_run_inline) {
  service_->Dispatch(
      std::move(connection.select),
      [this, target = &connection](SelectionResponse response) {
        FinishSelect(target, response);
      },
      may_run_inline);
}

void SelectionServer::FinishSelect(Connection* connection,
                                   const SelectionResponse& response) {
  AppendResponse(response, &connection->out);
  connection->out.push_back('\n');
  if (current_loop == this) {
    // Ran inline or was rejected: the loop carries on with it directly.
    connection->in_flight = false;
    --in_flight_;
  } else {
    Post(connection);
  }
}

void SelectionServer::Post(Connection* connection) {
  // The wake-up is written under the lock: once the loop has taken every
  // posted connection it may finish and the server may be destroyed, so
  // nothing of it is touched after the lock is released.
  std::lock_guard<std::mutex> lock(posted_mu_);
  if (posted_.empty()) WakeLoop(wake_fd_);
  posted_.push_back(connection);
}

void SelectionServer::TakePosted() {
  // Reset the eventfd before taking the list, so a post that lands in
  // between writes a wake-up that is not lost.
  uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof(count));
  taken_.clear();
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    taken_.swap(posted_);
  }
  for (Connection* connection : taken_) {
    connection->in_flight = false;
    --in_flight_;
    Advance(*connection);
  }
  bool stopping = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping = stopping_;
  }
  if (stopping) Drain();
}

void SelectionServer::Drain() {
  if (draining_) return;
  draining_ = true;
  // Closing a listener drops it from epoll and removes its socket file.
  for (ServerSocket& listener : listeners_) listener.Close();
}

void SelectionServer::ExpireIdle() {
  while (!by_progress_.empty() &&
         now_ - by_progress_.front()->last_progress >= idle_timeout_) {
    Connection& connection = *by_progress_.front();
    if (connection.in_flight) {
      // Waiting on the server, not the client: the clock restarts.
      Touch(connection);
      continue;
    }
    timed_out_counter_.Increment();
    Close(connection);
  }
}

int SelectionServer::NextTimeoutMs() const {
  if (by_progress_.empty()) return -1;
  const Clock::duration left =
      by_progress_.front()->last_progress + idle_timeout_ - Clock::now();
  if (left <= Clock::duration::zero()) return 0;
  // Rounded up, so the wake-up finds the deadline passed. idle_timeout_
  // fits an int of milliseconds (Start checks it).
  return static_cast<int>(
      std::chrono::ceil<std::chrono::milliseconds>(left).count());
}

void SelectionServer::ReloadLoop() {
  for (;;) {
    Connection* connection = nullptr;
    {
      std::unique_lock<std::mutex> lock(reload_mu_);
      reload_ready_.wait(
          lock, [this] { return reload_stop_ || !reloads_.empty(); });
      if (reloads_.empty()) return;
      connection = reloads_.front();
      reloads_.pop_front();
    }
    // Load + validate + publish run here, off the loop; in-flight selects
    // keep serving their admitted version. The domain is the server's own.
    ArtifactPaths& source = connection->reload;
    source.domain = service_->snapshot()->artifacts.domain;
    const Status status = service_->Reload(source);
    if (status.ok()) {
      connection->out += ReloadAckLine(service_->artifact_version());
    } else {
      AppendError(status, &connection->out);
    }
    connection->out.push_back('\n');
    Post(connection);
  }
}

void SelectionServer::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  stopped_cv_.notify_all();
  WakeLoop(wake_fd_);
}

void SelectionServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stopped_cv_.wait(lock, [this] { return stopping_; });
}

void SelectionServer::Shutdown() {
  RequestShutdown();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;
  }
  // The loop drains every in-flight select and reload before it returns,
  // so the reload thread is idle when it is told to stop.
  loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    reload_stop_ = true;
  }
  reload_ready_.notify_all();
  reload_thread_.join();
}

}  // namespace serve
}  // namespace tps
