#include "serve/cli_commands.h"

#include <iostream>
#include <utility>

#include "serve/protocol.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/socket.h"
#include "util/string_util.h"

namespace tps {
namespace serve {

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << std::endl;
  return 1;
}

StatusOr<TaskDomain> DomainFromFlag(const FlagParser& flags) {
  const std::string domain =
      strings::ToLower(flags.GetString("domain", "nlp"));
  if (domain == "nlp") return TaskDomain::kNLP;
  if (domain == "cv") return TaskDomain::kCV;
  return Status::InvalidArgument("--domain must be nlp or cv, got '" +
                                 domain + "'");
}

StatusOr<int> ThreadsFromFlag(const FlagParser& flags) {
  TPS_ASSIGN_OR_RETURN(int64_t threads, flags.GetInt("threads", 1));
  if (threads < 1) return Status::InvalidArgument("--threads must be >= 1");
  return static_cast<int>(threads);
}

StatusOr<ArtifactPaths> ArtifactPathsFromFlags(const FlagParser& flags) {
  ArtifactPaths paths;
  TPS_ASSIGN_OR_RETURN(paths.domain, DomainFromFlag(flags));
  paths.store = flags.GetString("store");
  if (paths.store.empty()) {
    return Status::InvalidArgument(
        "--store=PATH is required (write one with `tps_cli offline "
        "--store=PATH`)");
  }
  paths.id = flags.GetString("id");
  return paths;
}

StatusOr<ServiceOptions> ServiceOptionsFromFlags(const FlagParser& flags) {
  ServiceOptions options;
  TPS_ASSIGN_OR_RETURN(int64_t workers, flags.GetInt("workers", 2));
  if (workers < 1) {
    return Status::InvalidArgument("--workers must be >= 1");
  }
  options.worker_threads = static_cast<int>(workers);
  TPS_ASSIGN_OR_RETURN(
      int64_t queue,
      flags.GetInt("queue", static_cast<int64_t>(options.max_queue)));
  if (queue < 1) return Status::InvalidArgument("--queue must be >= 1");
  options.max_queue = static_cast<size_t>(queue);
  TPS_ASSIGN_OR_RETURN(options.pipeline_threads, ThreadsFromFlag(flags));
  TPS_ASSIGN_OR_RETURN(
      int64_t cache,
      flags.GetInt("cache", static_cast<int64_t>(options.cache_capacity)));
  if (cache < 0) return Status::InvalidArgument("--cache must be >= 0");
  options.cache_capacity = static_cast<size_t>(cache);
  TPS_ASSIGN_OR_RETURN(options.default_deadline_ms,
                       flags.GetDouble("deadline", 0.0));
  if (options.default_deadline_ms < 0.0) {
    return Status::InvalidArgument("--deadline must be >= 0");
  }
  return options;
}

StatusOr<SelectionRequest> RequestFromFlags(const FlagParser& flags) {
  SelectionRequest request;
  request.target = flags.GetString("target");
  TPS_ASSIGN_OR_RETURN(int64_t k, flags.GetInt("k", 10));
  if (k < 1) return Status::InvalidArgument("--k must be >= 1");
  request.top_k = static_cast<size_t>(k);
  TPS_ASSIGN_OR_RETURN(request.threshold,
                       flags.GetDouble("threshold", 0.0));
  request.proxy = flags.GetString("proxy", "leep");
  request.proxies = flags.GetList("proxies");
  TPS_ASSIGN_OR_RETURN(request.deadline_ms, flags.GetDouble("deadline", 0.0));
  if (request.deadline_ms < 0.0) {
    return Status::InvalidArgument("--deadline must be >= 0");
  }
  TPS_ASSIGN_OR_RETURN(int64_t nprobe, flags.GetInt("nprobe", 0));
  if (nprobe < 0) return Status::InvalidArgument("--nprobe must be >= 0");
  request.nprobe = static_cast<size_t>(nprobe);
  request.recall_backend = flags.GetString("backend");
  return request;
}

int RunServe(const FlagParser& flags) {
  auto paths_or = ArtifactPathsFromFlags(flags);
  if (!paths_or.ok()) return Fail(paths_or.status());
  auto options_or = ServiceOptionsFromFlags(flags);
  if (!options_or.ok()) return Fail(options_or.status());

  ServerOptions server_options;
  server_options.unix_path = flags.GetString("socket");
  if (flags.Has("port")) {
    auto port_or = flags.GetInt("port", 0);
    if (!port_or.ok()) return Fail(port_or.status());
    if (*port_or < 0 || *port_or > 65535) {
      return Fail(Status::InvalidArgument("--port must be in [0, 65535]"));
    }
    server_options.tcp_port = static_cast<int>(*port_or);
  }
  if (server_options.unix_path.empty() && server_options.tcp_port < 0) {
    return Fail(Status::InvalidArgument(
        "--socket=PATH and/or --port=N is required"));
  }

  auto artifacts_or = ServiceArtifacts::Load(*paths_or);
  if (!artifacts_or.ok()) return Fail(artifacts_or.status());
  auto service_or =
      SelectionService::Create(std::move(*artifacts_or), *options_or);
  if (!service_or.ok()) return Fail(service_or.status());
  SelectionService& service = **service_or;

  auto server_or = SelectionServer::Start(&service, server_options);
  if (!server_or.ok()) return Fail(server_or.status());
  SelectionServer& server = **server_or;

  {
    const auto snapshot = service.snapshot();
    std::cout << "serving " << ToString(snapshot->artifacts.domain)
              << " zoo (" << snapshot->artifacts.zoo.size() << " models)\n";
  }
  if (!server.unix_path().empty()) {
    std::cout << "  unix socket -> " << server.unix_path() << "\n";
  }
  if (server.tcp_port() > 0) {
    std::cout << "  tcp -> 127.0.0.1:" << server.tcp_port() << "\n";
  }
  std::cout << "  workers=" << options_or->worker_threads
            << " queue=" << options_or->max_queue
            << " threads=" << options_or->pipeline_threads
            << " cache=" << options_or->cache_capacity << "\n"
            << "send {\"cmd\":\"shutdown\"} to stop\n"
            << std::flush;

  server.Wait();
  server.Shutdown();
  const ServiceStats stats = service.Stats();
  std::cout << "server stopped: " << stats.completed << " completed, "
            << stats.rejected << " rejected, " << stats.deadline_exceeded
            << " deadline-exceeded, " << stats.errors << " errors\n"
            << "proxy cache: " << stats.cache_hits << " hits, "
            << stats.cache_misses << " misses, " << stats.cache_evictions
            << " evictions\n";
  return 0;
}

namespace {

/// Shared body of `query` and `reload`; `forced_cmd` overrides --cmd when
/// non-empty.
int RunQueryImpl(const FlagParser& flags, const std::string& forced_cmd) {
  const std::string socket_path = flags.GetString("socket");
  StatusOr<Socket> socket_or = Status::InvalidArgument(
      "--socket=PATH or --port=N is required");
  if (!socket_path.empty()) {
    socket_or = ConnectUnix(socket_path);
  } else if (flags.Has("port")) {
    auto port_or = flags.GetInt("port", 0);
    if (!port_or.ok()) return Fail(port_or.status());
    socket_or = ConnectTcp(static_cast<int>(*port_or));
  }
  if (!socket_or.ok()) return Fail(socket_or.status());
  Socket socket = std::move(*socket_or);

  const std::string cmd =
      forced_cmd.empty() ? flags.GetString("cmd", "select") : forced_cmd;
  std::string line;
  if (cmd == "select") {
    auto request_or = RequestFromFlags(flags);
    if (!request_or.ok()) return Fail(request_or.status());
    if (request_or->target.empty()) {
      return Fail(Status::InvalidArgument("--target is required"));
    }
    auto trace_or = flags.GetBool("trace", false);
    if (!trace_or.ok()) return Fail(trace_or.status());
    request_or->want_trace = *trace_or;
    line = RequestToLine(*request_or);
  } else if (cmd == "ping" || cmd == "stats" || cmd == "shutdown") {
    json::Value doc = json::Value::Object();
    doc.Set("cmd", json::Value::String(cmd));
    line = doc.Dump(-1);
  } else if (cmd == "reload") {
    // The server supplies the domain itself.
    auto paths_or = ArtifactPathsFromFlags(flags);
    if (!paths_or.ok()) return Fail(paths_or.status());
    json::Value doc = json::Value::Object();
    doc.Set("cmd", json::Value::String(cmd));
    doc.Set("store", json::Value::String(paths_or->store));
    if (!paths_or->id.empty()) {
      doc.Set("id", json::Value::String(paths_or->id));
    }
    line = doc.Dump(-1);
  } else {
    return Fail(Status::InvalidArgument(
        "--cmd must be select, ping, stats, reload or shutdown; got '" +
        cmd + "'"));
  }

  Status sent = socket.SendAll(line + "\n");
  if (!sent.ok()) return Fail(sent);
  std::string buffer;
  auto reply_or = socket.RecvLine(&buffer);
  if (!reply_or.ok()) return Fail(reply_or.status());
  std::cout << *reply_or << "\n";

  // Exit code mirrors the reply so shell pipelines can branch on it.
  auto doc_or = json::Parse(*reply_or);
  if (!doc_or.ok()) return Fail(doc_or.status());
  auto ok_or = doc_or->GetBool("ok");
  if (!ok_or.ok()) return Fail(ok_or.status());
  return *ok_or ? 0 : 1;
}

}  // namespace

int RunQuery(const FlagParser& flags) { return RunQueryImpl(flags, ""); }

int RunReload(const FlagParser& flags) {
  return RunQueryImpl(flags, "reload");
}

}  // namespace serve
}  // namespace tps
