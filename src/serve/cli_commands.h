#ifndef TPS_SERVE_CLI_COMMANDS_H_
#define TPS_SERVE_CLI_COMMANDS_H_

#include "serve/artifacts.h"
#include "serve/service.h"
#include "util/flags.h"
#include "util/statusor.h"

namespace tps {
namespace serve {

/// Flag plumbing shared by `tps_serve` and every `tps_cli` subcommand, so
/// the standalone daemon, the in-process `recall`/`trace`/`select` and the
/// wire `query` accept identical flags and print identical output.

/// Prints "error: <status>" on stderr and returns exit code 1.
int Fail(const Status& status);

/// --domain (nlp) -> TaskDomain; anything but nlp/cv is InvalidArgument.
StatusOr<TaskDomain> DomainFromFlag(const FlagParser& flags);

/// --threads (1) -> a thread count >= 1.
StatusOr<int> ThreadsFromFlag(const FlagParser& flags);

/// --domain/--store/--id -> ArtifactPaths. --store is required: every
/// artifact is served from a model store.
StatusOr<ArtifactPaths> ArtifactPathsFromFlags(const FlagParser& flags);

/// --workers (2) / --queue (64) / --threads (1) / --cache (4096) /
/// --deadline (ms, 0 = none) -> ServiceOptions.
StatusOr<ServiceOptions> ServiceOptionsFromFlags(const FlagParser& flags);

/// --target / --k (10, >= 1) / --threshold (0) / --proxy (leep) /
/// --proxies / --deadline (ms) / --nprobe (0) / --backend ->
/// SelectionRequest. An absent --target leaves `target` empty for the
/// caller to reject (`select` may name --targets instead); `want_trace`
/// is left to the caller, whose --trace means a bool or a path.
StatusOr<SelectionRequest> RequestFromFlags(const FlagParser& flags);

/// `serve`: load artifacts, start a SelectionService plus its socket front
/// end (--socket=PATH and/or --port=N; port 0 auto-assigns), then block
/// until a client sends {"cmd":"shutdown"}. Returns a process exit code.
int RunServe(const FlagParser& flags);

/// `query`: connect to a running server (--socket=PATH or --port=N), send
/// one request (--cmd=select|ping|stats|reload|shutdown, default select),
/// print the raw NDJSON reply line on stdout. A select needs --target and
/// takes --trace (bool) to ask for the trace. For --cmd=reload --store
/// (and optional --id) name the new artifacts to hot-swap in. Exit 0 iff
/// the reply has "ok": true.
int RunQuery(const FlagParser& flags);

/// `reload`: shorthand for `query --cmd=reload` — hot-swap a running
/// server onto the artifacts named by --store/--id.
int RunReload(const FlagParser& flags);

}  // namespace serve
}  // namespace tps

#endif  // TPS_SERVE_CLI_COMMANDS_H_
