// tps_serve — standalone NDJSON selection server.
//
//   tps_serve --domain=nlp --store=store.log --socket=/tmp/tps.sock
//   tps_serve --domain=cv --store=store.log --id=cv --port=0
//
// Loads the offline artifacts from a model store (written by `tps_cli
// offline --store`) once, then answers selection requests over a
// Unix-domain socket (--socket=PATH) and/or TCP on 127.0.0.1 (--port=N;
// port 0 auto-assigns and prints the chosen port). Tuning: --workers
// (request workers, default 2), --queue (admission-queue depth, 64),
// --threads (pipeline fan-out per request, 1), --cache (proxy-score cache
// entries, 4096; 0 disables), --deadline (default per-request deadline in
// ms, 0 = none).
//
// The wire protocol is one JSON object per line (see src/serve/protocol.h);
// `tps_cli query` is the matching client. A client's {"cmd":"shutdown"}
// stops the server. Identical to `tps_cli serve` — this binary exists so a
// deployment can ship the server without the rest of the CLI.

#include "serve/cli_commands.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  auto flags_or = tps::FlagParser::Parse(argc, argv);
  if (!flags_or.ok()) return tps::serve::Fail(flags_or.status());
  return tps::serve::RunServe(*flags_or);
}
