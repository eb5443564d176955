#include "serve/server.h"

#include <utility>

#include "serve/protocol.h"

namespace tps {
namespace serve {

StatusOr<std::unique_ptr<SelectionServer>> SelectionServer::Start(
    SelectionService* service, const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("service must not be null");
  }
  if (options.unix_path.empty() && options.tcp_port < 0) {
    return Status::InvalidArgument(
        "at least one endpoint is required (unix_path or tcp_port)");
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
  return std::unique_ptr<SelectionServer>(
      new SelectionServer(service, std::move(listeners), options));
}

SelectionServer::SelectionServer(SelectionService* service,
                                 std::vector<ServerSocket> listeners,
                                 const ServerOptions& options)
    : service_(service),
      listeners_(std::move(listeners)),
      max_line_bytes_(options.max_line_bytes),
      pre_reply_hook_(options.pre_reply_hook),
      connection_done_hook_(options.connection_done_hook) {
  for (ServerSocket& listener : listeners_) {
    if (!listener.unix_path().empty()) unix_path_ = listener.unix_path();
    if (listener.port() > 0) tcp_port_ = listener.port();
  }
  accept_threads_.reserve(listeners_.size());
  for (ServerSocket& listener : listeners_) {
    accept_threads_.emplace_back([this, &listener] { AcceptLoop(&listener); });
  }
}

SelectionServer::~SelectionServer() { Shutdown(); }

void SelectionServer::AcceptLoop(ServerSocket* listener) {
  for (;;) {
    StatusOr<Socket> accepted = listener->Accept();
    // Whether or not a client arrived, clean up after connections that
    // finished since the last pass — the bookkeeping stays O(live
    // connections) over a server's lifetime instead of growing by one
    // thread + one socket per client ever served.
    ReapFinishedConnections();
    if (!accepted.ok()) return;  // Unavailable after Shutdown, or fatal.
    auto socket = std::make_shared<Socket>(std::move(*accepted));
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;  // Late straggler: drop the connection.
    const uint64_t id = next_connection_id_++;
    Connection connection;
    connection.socket = socket;
    connection.thread = std::thread([this, socket, id] {
      HandleConnection(std::move(socket));
      {
        std::lock_guard<std::mutex> done_lock(mu_);
        finished_.push_back(id);
      }
      if (connection_done_hook_) connection_done_hook_();
    });
    connections_.emplace(id, std::move(connection));
  }
}

void SelectionServer::ReapFinishedConnections() {
  std::vector<Connection> reaped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reaped.reserve(finished_.size());
    for (const uint64_t id : finished_) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // Already joined by Shutdown.
      reaped.push_back(std::move(it->second));
      connections_.erase(it);
    }
    finished_.clear();
  }
  // Join outside the lock: the handler pushed its id just before
  // returning, so this blocks at most for the tail of that thread's exit.
  for (Connection& connection : reaped) connection.thread.join();
}

size_t SelectionServer::tracked_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_.size();
}

void SelectionServer::HandleConnection(std::shared_ptr<Socket> socket) {
  std::string buffer;
  // One reply buffer per connection: replies are written into it, newline
  // included, so a warm reply reuses its capacity instead of allocating.
  std::string reply;
  const auto send_error = [&](const Status& status) {
    reply.clear();
    AppendError(status, &reply);
    reply.push_back('\n');
    return socket->SendAll(reply).ok();
  };
  for (;;) {
    StatusOr<std::string> line_or = socket->RecvLine(&buffer, max_line_bytes_);
    if (!line_or.ok()) {
      // An oversized line was discarded by RecvLine with the stream left
      // framed on the next line: answer the error and keep the session.
      if (line_or.status().IsInvalidArgument()) {
        if (!send_error(line_or.status())) return;
        continue;
      }
      return;  // Peer closed (or we were shut down).
    }
    if (line_or->empty()) continue;  // Tolerate blank keep-alive lines.
    StatusOr<WireRequest> request_or = ParseRequestLine(*line_or);
    if (!request_or.ok()) {
      // One bad line never tears down the session.
      if (!send_error(request_or.status())) return;
      continue;
    }
    reply.clear();
    bool shutdown_after = false;
    switch (request_or->command) {
      case WireCommand::kPing:
        reply += PongLine();
        break;
      case WireCommand::kStats:
        reply += StatsToLine(service_->Stats());
        break;
      case WireCommand::kShutdown:
        reply += ShutdownAckLine();
        shutdown_after = true;
        break;
      case WireCommand::kReload: {
        // Load + validate + publish run right here on the connection
        // thread; in-flight selects keep serving their admitted version.
        ArtifactPaths source = std::move(request_or->reload);
        source.domain = service_->snapshot()->artifacts.domain;
        const Status status = service_->Reload(source);
        if (status.ok()) {
          reply += ReloadAckLine(service_->artifact_version());
        } else {
          AppendError(status, &reply);
        }
        break;
      }
      case WireCommand::kSelect: {
        // Serve, not Handle: socket traffic goes through the same
        // admission control and deadline accounting as embedded callers,
        // and runs right here when a run slot is free.
        AppendResponse(service_->Serve(std::move(request_or->select)),
                       &reply);
        break;
      }
    }
    reply.push_back('\n');
    if (pre_reply_hook_) pre_reply_hook_();
    const bool reply_sent = socket->SendAll(reply).ok();
    if (shutdown_after) {
      // The shutdown was ACCEPTED when the command parsed; the ack is
      // best-effort. A client that sends `shutdown` and disconnects
      // without reading the reply must still stop the server.
      RequestShutdown();  // Wait()/destructor performs the join.
      return;
    }
    if (!reply_sent) return;
  }
}

void SelectionServer::RequestShutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return;
  stopping_ = true;
  for (ServerSocket& listener : listeners_) listener.Shutdown();
  for (auto& [id, connection] : connections_) {
    connection.socket->ShutdownBoth();
  }
  stopped_cv_.notify_all();
}

void SelectionServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stopped_cv_.wait(lock, [this] { return stopping_; });
}

void SelectionServer::Shutdown() {
  RequestShutdown();
  std::vector<std::thread> accepts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;
    accepts.swap(accept_threads_);
  }
  for (std::thread& thread : accepts) thread.join();
  // After the accept threads are gone no new connection threads can be
  // spawned, so this snapshot is complete.
  std::vector<Connection> remaining;
  {
    std::lock_guard<std::mutex> lock(mu_);
    remaining.reserve(connections_.size());
    for (auto& [id, connection] : connections_) {
      remaining.push_back(std::move(connection));
    }
    connections_.clear();
    finished_.clear();
  }
  for (Connection& connection : remaining) connection.thread.join();
  for (ServerSocket& listener : listeners_) listener.Close();
}

}  // namespace serve
}  // namespace tps
