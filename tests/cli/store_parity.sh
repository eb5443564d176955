#!/usr/bin/env bash
# Store-mode parity for tps_cli: `recall`, `trace` and `select` run one
# pipeline, so over the same model store (one that carries an IVF recall
# index) they must recall the same models at the same proxy cost and emit
# the same trace. Registered as the `cli_store_parity` ctest (label: cli).
#
#   usage: store_parity.sh <path-to-tps_cli> <scratch-dir>

set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <path-to-tps_cli> <scratch-dir>" >&2
  exit 2
fi

CLI=$1
SCRATCH=$2
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

# run <description> -- <cli-args...>: runs the CLI, stdout to $SCRATCH/out.
run() {
  local what=$1
  shift 2  # drop what, "--"
  if ! "$CLI" "$@" >"$SCRATCH/out" 2>"$SCRATCH/err"; then
    fail "$what exited non-zero (args: $*)"
    sed 's/^/  stderr: /' "$SCRATCH/err" >&2
  fi
}

run "offline build" -- offline --domain=nlp --index \
  --store="$SCRATCH/store.log"

STORE=(--domain=nlp --store="$SCRATCH/store.log")
for target in mnli boolq; do
  run "trace $target" -- trace "${STORE[@]}" --target=$target \
    --out="$SCRATCH/trace_$target.json"
  run "select $target" -- select "${STORE[@]}" --target=$target \
    --trace="$SCRATCH/select_$target.json"
  # The traces agree on everything but wall-clock time.
  if ! diff <(grep -v wall "$SCRATCH/trace_$target.json") \
            <(grep -v wall "$SCRATCH/select_$target.json") \
            >"$SCRATCH/diff"; then
    fail "trace --out and select --trace differ for $target"
    head -20 "$SCRATCH/diff" | sed 's/^/  diff: /' >&2
  fi

  run "recall $target" -- recall "${STORE[@]}" --target=$target
  recall_proxies=$(sed -n 's/.*epoch-equivalents (\([0-9]*\) forward passes).*/\1/p' \
    "$SCRATCH/out")
  select_proxies=$(sed -n 's/.*"proxies_computed": \([0-9]*\).*/\1/p' \
    "$SCRATCH/select_$target.json")
  if [[ -z $recall_proxies || $recall_proxies != "$select_proxies" ]]; then
    fail "$target: recall computed '$recall_proxies' proxies, select" \
      "'$select_proxies'"
  else
    echo "ok: $target: $recall_proxies proxies in recall and select"
  fi
  if ! grep -q "^recall index: ivf" "$SCRATCH/out"; then
    fail "$target: recall did not probe the store's IVF index"
  fi
done

if [[ $FAILURES -ne 0 ]]; then
  echo "$FAILURES store parity check(s) failed" >&2
  exit 1
fi
echo "all store parity checks passed"
