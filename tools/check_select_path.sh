#!/usr/bin/env bash
# Static guard for the cold path every wire select pays for.
#
#  1. The pipeline records into the instruments MetricsRegistry::pipeline()
#     resolved once per registry. A by-name lookup (counter("..."),
#     histogram("..."), gauge("...")) in coarse recall, fine selection or
#     the two-phase selector takes the registry mutex and builds a
#     std::string key on every select.
#  2. The server side of the wire codec — ParseRequestLine and the reply
#     writers, between the [select-codec-begin]/[select-codec-end] markers
#     of src/serve/protocol.cc — scans requests with json::VisitMembers and
#     writes replies with json::Writer. A json::Value built there, or a
#     json::Parse call, puts a document model back on every request.
#  3. SelectionService::Run keys the proxy cache and flight group by the
#     snapshot's cache_epoch, which a reload that keeps the zoo object
#     inherits. Keying by the snapshot's version instead drops every warm
#     proxy score on every reload, and the answers stay the same, so no
#     answer check notices.
#
# A tripwire, not a proof; it runs as the `select_path_guard` ctest.
#
#   usage: check_select_path.sh <repo-root>

set -u

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <repo-root>" >&2
  exit 2
fi

SRC=$1/src
PROTOCOL=$SRC/serve/protocol.cc
SERVICE=$SRC/serve/service.cc
FAILURES=0

fail() {
  echo "FAIL: $1" >&2
  shift
  for line in "$@"; do echo "  $line" >&2; done
  FAILURES=$((FAILURES + 1))
}

# 1. No by-name instrument lookups in the per-select pipeline.
for file in core/coarse_recall.cc core/fine_selection.cc core/two_phase.cc; do
  if [[ ! -f "$SRC/$file" ]]; then
    fail "src/$file is missing — cannot check it"
    continue
  fi
  hits=$(grep -n 'counter("\|histogram("\|gauge("' "$SRC/$file" || true)
  if [[ -n "$hits" ]]; then
    fail "src/$file looks an instrument up by name — record through metrics->pipeline()" \
         "$hits"
  else
    echo "ok: src/$file does no by-name instrument lookup"
  fi
done

# 2. The server-side codec builds no document.
if [[ ! -f "$PROTOCOL" ]]; then
  fail "src/serve/protocol.cc is missing — cannot check it"
else
  begin_line=$(grep -n "\[select-codec-begin\]" "$PROTOCOL" | head -1 | cut -d: -f1)
  end_line=$(grep -n "\[select-codec-end\]" "$PROTOCOL" | head -1 | cut -d: -f1)
  if [[ -z "$begin_line" || -z "$end_line" ]] || (( begin_line >= end_line )); then
    fail "protocol.cc: [select-codec-begin]/[select-codec-end] markers missing or out of order"
  else
    section=$(sed -n "${begin_line},${end_line}p" "$PROTOCOL")
    for definition in "^StatusOr<WireRequest> ParseRequestLine(" \
                      "^std::string ResponseToLine(" \
                      "^void AppendResponse("; do
      if echo "$section" | grep -q "$definition"; then
        echo "ok: protocol.cc defines ${definition#^} inside the markers"
      else
        fail "protocol.cc: ${definition#^} is not defined between the codec markers"
      fi
    done
    hits=$(echo "$section" \
      | grep -n 'json::Parse(\|json::Value[ *&({]\|json::Value::\(Null\|Bool\|Number\|Int\|Uint\|String\|Array\|Object\)(\|\.Dump(' \
      || true)
    if [[ -n "$hits" ]]; then
      fail "protocol.cc select codec builds or parses a json::Value — use json::VisitMembers / json::Writer (offsets relative to line $begin_line)" \
           "$hits"
    else
      echo "ok: the select codec builds no json::Value and calls no json::Parse"
    fi
  fi
fi

# 3. The proxy cache epoch survives reloads that keep the zoo.
if [[ ! -f "$SERVICE" ]]; then
  fail "src/serve/service.cc is missing — cannot check it"
else
  hits=$(grep -n 'artifact_epoch *=.*version' "$SERVICE" || true)
  if [[ -n "$hits" ]]; then
    fail "service.cc keys the proxy cache by the artifact version — stamp snapshot.cache_epoch" \
         "$hits"
  elif ! grep -q 'artifact_epoch = snapshot\.cache_epoch;' "$SERVICE"; then
    fail "service.cc does not stamp options.recall.artifact_epoch = snapshot.cache_epoch"
  else
    echo "ok: service.cc keys the proxy cache by the snapshot's cache epoch"
  fi
fi

if [[ $FAILURES -ne 0 ]]; then
  echo "$FAILURES select path check(s) failed" >&2
  exit 1
fi
echo "select path guard passed"
