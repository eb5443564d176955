#!/usr/bin/env bash
# Exit-code audit for tps_cli: every error path must return non-zero with
# diagnostics on stderr (usage exits 2, flag/data errors exit 1), every
# success path must return 0, and usage/error text must never pollute
# stdout. Registered as the `cli_exit_code_audit` ctest (labels: cli,
# metrics).
#
#   usage: exit_code_audit.sh <path-to-tps_cli> <scratch-dir>

set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <path-to-tps_cli> <scratch-dir>" >&2
  exit 2
fi

CLI=$1
SCRATCH=$2
# Start from a clean scratch: stale artifacts from a previous run (e.g. a
# store that already holds trained embeddings) would flip the
# "before training" error checks into false failures.
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"
STDOUT=$SCRATCH/stdout.txt
STDERR=$SCRATCH/stderr.txt
FAILURES=0

# expect <expected-code> <description> -- <cli-args...>
# Runs the CLI, checks the exit code, and leaves stdout/stderr in
# $STDOUT/$STDERR for the follow-up checks below.
expect() {
  local want=$1 what=$2
  shift 3  # drop want, what, "--"
  "$CLI" "$@" >"$STDOUT" 2>"$STDERR"
  local got=$?
  if [[ $got -ne $want ]]; then
    echo "FAIL: $what: expected exit $want, got $got (args: $*)" >&2
    sed 's/^/  stderr: /' "$STDERR" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $what (exit $got)"
  fi
}

require_stderr_contains() {
  local needle=$1 what=$2
  if ! grep -q "$needle" "$STDERR"; then
    echo "FAIL: $what: stderr does not contain '$needle'" >&2
    FAILURES=$((FAILURES + 1))
  fi
}

require_stdout_empty() {
  local what=$1
  if [[ -s $STDOUT ]]; then
    echo "FAIL: $what: expected empty stdout, got:" >&2
    sed 's/^/  stdout: /' "$STDOUT" >&2
    FAILURES=$((FAILURES + 1))
  fi
}

### Usage errors: exit 2, usage on stderr, NOTHING on stdout.

expect 2 "no arguments" --
require_stderr_contains "usage: tps_cli" "no arguments"
require_stdout_empty "no arguments"

expect 2 "unknown command" -- frobnicate
require_stderr_contains "usage: tps_cli" "unknown command"
require_stdout_empty "unknown command"

### Flag and data errors: exit 1, "error:" on stderr, nothing on stdout.

expect 1 "bad domain" -- recall --domain=fortran
require_stderr_contains "error:" "bad domain"
require_stdout_empty "bad domain"

expect 1 "select without artifacts" -- select --domain=nlp --target=mnli
require_stderr_contains "error:" "select without artifacts"

# Artifacts load from a model store only: the retired file flags name no
# source, and the diagnostic points at --store.
expect 1 "select with a matrix file but no store" -- select --domain=nlp \
  --matrix="$SCRATCH/m.txt" --target=mnli
require_stderr_contains "\-\-store" "select with a matrix file but no store"
require_stdout_empty "select with a matrix file but no store"

expect 1 "offline without store" -- offline --domain=nlp
require_stderr_contains "\-\-store" "offline without store"

# Loading reads the store without writing it: a mistyped path fails and
# leaves no file behind.
expect 1 "select with a missing store" -- select --domain=nlp \
  --store="$SCRATCH/typo.log" --target=mnli
require_stderr_contains "NotFound" "select with a missing store"
if [[ -e $SCRATCH/typo.log ]]; then
  echo "FAIL: select --store=<missing> created $SCRATCH/typo.log" >&2
  FAILURES=$((FAILURES + 1))
fi

expect 1 "non-integer threads" -- offline --store="$SCRATCH/unused.log" \
  --threads=many
require_stderr_contains "error:" "non-integer threads"

expect 1 "threads below one" -- offline --store="$SCRATCH/unused.log" \
  --threads=0
require_stderr_contains "error:" "threads below one"

expect 1 "card without model" -- card
require_stderr_contains "error:" "card without model"

expect 1 "card with unknown model" -- card --model=no-such-model
require_stderr_contains "error:" "card with unknown model"

expect 1 "store-info without store" -- store-info
require_stderr_contains "error:" "store-info without store"

expect 1 "store-compact without store" -- store-compact
require_stderr_contains "error:" "store-compact without store"

expect 1 "store in missing directory" -- \
  store-info --store="$SCRATCH/no/such/dir/store.log"
require_stderr_contains "error:" "store in missing directory"

# Neither store command creates a store it was not given: a mistyped path
# fails NotFound and leaves no file behind.
for cmd in store-info store-compact; do
  expect 1 "$cmd with a missing store" -- $cmd \
    --store="$SCRATCH/typo-$cmd.log"
  require_stderr_contains "NotFound" "$cmd with a missing store"
  if [[ -e $SCRATCH/typo-$cmd.log ]]; then
    echo "FAIL: $cmd --store=<missing> created $SCRATCH/typo-$cmd.log" >&2
    FAILURES=$((FAILURES + 1))
  fi
done

expect 1 "baselines with unknown target" -- \
  baselines --domain=nlp --target=no-such-dataset
require_stderr_contains "error:" "baselines with unknown target"

### Serving subcommands: flag validation fails before anything listens.

expect 1 "serve without endpoint" -- serve --domain=nlp \
  --store="$SCRATCH/store.log"
require_stderr_contains "error:" "serve without endpoint"
require_stdout_empty "serve without endpoint"

expect 1 "serve with zero workers" -- serve --socket="$SCRATCH/s.sock" \
  --store="$SCRATCH/store.log" --workers=0
require_stderr_contains "error:" "serve with zero workers"

expect 1 "serve with negative cache" -- serve --socket="$SCRATCH/s.sock" \
  --store="$SCRATCH/store.log" --cache=-1
require_stderr_contains "error:" "serve with negative cache"

expect 1 "query without endpoint" -- query --cmd=ping
require_stderr_contains "error:" "query without endpoint"
require_stdout_empty "query without endpoint"

expect 1 "query against dead socket" -- \
  query --socket="$SCRATCH/never_bound.sock" --cmd=ping
require_stderr_contains "error:" "query against dead socket"

### Success paths: exit 0. Build the offline artifacts once, then exercise
### the commands that need them.

expect 0 "offline build" -- offline --domain=nlp \
  --store="$SCRATCH/store.log"
if [[ -e $SCRATCH/unused.log ]]; then
  echo "FAIL: a failed offline run created $SCRATCH/unused.log" >&2
  FAILURES=$((FAILURES + 1))
fi

ARTIFACTS=(--domain=nlp --store="$SCRATCH/store.log" --target=mnli)
cp "$SCRATCH/store.log" "$SCRATCH/store3.log"

expect 0 "recall success" -- recall "${ARTIFACTS[@]}" --k=5
expect 0 "select success" -- select "${ARTIFACTS[@]}"
expect 0 "trace success" -- trace "${ARTIFACTS[@]}"
expect 0 "datasets success" -- datasets --domain=cv
expect 0 "models success" -- models --domain=nlp

### One --k rule: recall, trace and select reject --k < 1 with
### InvalidArgument, as `query` and the wire protocol do.

for cmd in select recall trace; do
  for k in 0 -1; do
    expect 1 "$cmd with --k=$k" -- $cmd "${ARTIFACTS[@]}" --k=$k
    require_stderr_contains "InvalidArgument" "$cmd with --k=$k"
    require_stdout_empty "$cmd with --k=$k"
  done
done

expect 1 "select with unknown target" -- select --domain=nlp \
  --store="$SCRATCH/store.log" --target=no-such-dataset
require_stderr_contains "error:" "select with unknown target"

### select via the in-process SelectionService: --repeat/--targets reuse
### loaded artifacts and report cache totals.

expect 0 "select with repeat" -- select "${ARTIFACTS[@]}" --repeat=2
if ! grep -q "served 2 requests; proxy cache:" "$STDOUT"; then
  echo "FAIL: select --repeat=2 did not print the served-requests line" >&2
  FAILURES=$((FAILURES + 1))
fi

expect 0 "select with target list" -- select --domain=nlp \
  --store="$SCRATCH/store.log" --targets=mnli,boolq
if ! grep -q "served 2 requests" "$STDOUT"; then
  echo "FAIL: select --targets=a,b did not serve both" >&2
  FAILURES=$((FAILURES + 1))
fi

expect 1 "select with zero repeat" -- select "${ARTIFACTS[@]}" --repeat=0
require_stderr_contains "error:" "select with zero repeat"

expect 1 "select repeat with trace" -- select "${ARTIFACTS[@]}" --repeat=2 \
  --trace="$SCRATCH/multi_trace.json"
require_stderr_contains "error:" "select repeat with trace"

### --trace on select needs a path; bare --trace must fail loudly instead
### of mixing trace JSON into the human-readable report.

expect 1 "select with valueless --trace" -- select "${ARTIFACTS[@]}" --trace
require_stderr_contains "error:" "select with valueless --trace"

expect 0 "select with trace file" -- select "${ARTIFACTS[@]}" \
  --trace="$SCRATCH/trace.json"
if [[ ! -s $SCRATCH/trace.json ]]; then
  echo "FAIL: select --trace=PATH did not write the trace file" >&2
  FAILURES=$((FAILURES + 1))
fi

### train-embed + select --backend: the learned recall backend. Routing to
### a backend the artifacts cannot serve (or one that does not exist) must
### fail loudly; after training, every backend must serve.

expect 1 "train-embed without artifacts" -- train-embed --domain=nlp
require_stderr_contains "\-\-store" "train-embed without artifacts"

expect 1 "train-embed with bad dim" -- train-embed --domain=nlp \
  --store="$SCRATCH/store.log" --dim=0
require_stderr_contains "error:" "train-embed with bad dim"

# A missing store is refused before anything is trained, and no file is
# created.
expect 1 "train-embed with a missing store" -- train-embed --domain=nlp \
  --store="$SCRATCH/no-such-store.log"
require_stderr_contains "NotFound" "train-embed with a missing store"
if [[ -e $SCRATCH/no-such-store.log ]]; then
  echo "FAIL: train-embed --store=<missing> created a store file" >&2
  FAILURES=$((FAILURES + 1))
fi

expect 1 "select with unknown backend" -- select "${ARTIFACTS[@]}" \
  --backend=no-such-backend
require_stderr_contains "error:" "select with unknown backend"

expect 1 "select embedding backend before training" -- select --domain=nlp \
  --store="$SCRATCH/store.log" --target=mnli --backend=embedding
require_stderr_contains "error:" "select embedding backend before training"

expect 0 "select representative backend" -- select "${ARTIFACTS[@]}" \
  --backend=representative

# Every command above only read store.log: it is still byte-identical to
# the copy taken after the offline build.
if ! cmp -s "$SCRATCH/store.log" "$SCRATCH/store3.log"; then
  echo "FAIL: reading commands modified the model store" >&2
  FAILURES=$((FAILURES + 1))
fi

# store-info inspects without writing: a torn tail (a record a writer is
# still appending) is reported and left on disk byte for byte.
cp "$SCRATCH/store.log" "$SCRATCH/torn.log"
printf 'torn' >>"$SCRATCH/torn.log"
cp "$SCRATCH/torn.log" "$SCRATCH/torn.copy"
expect 0 "store-info on a torn store" -- store-info \
  --store="$SCRATCH/torn.log"
if ! grep -q '^recovery: .*torn tail: left on disk' "$STDOUT"; then
  echo "FAIL: store-info did not report the torn tail" >&2
  sed 's/^/  stdout: /' "$STDOUT" >&2
  FAILURES=$((FAILURES + 1))
fi
if ! cmp -s "$SCRATCH/torn.log" "$SCRATCH/torn.copy"; then
  echo "FAIL: store-info modified a torn store" >&2
  FAILURES=$((FAILURES + 1))
fi

# The two identical stores train, one serially and one on three threads.
expect 0 "train-embed into store" -- train-embed --domain=nlp \
  --store="$SCRATCH/store.log" --epochs=50

# Training is deterministic across thread counts, pool or no pool.
expect 0 "train-embed on three threads" -- train-embed --domain=nlp \
  --store="$SCRATCH/store3.log" --epochs=50 --threads=3
if ! cmp -s "$SCRATCH/store.log" "$SCRATCH/store3.log"; then
  echo "FAIL: train-embed --threads=3 wrote different embeddings" >&2
  FAILURES=$((FAILURES + 1))
fi

# store-info lists every namespace: its rows add up to the live entries,
# trained embeddings included.
expect 0 "store-info after train-embed" -- store-info \
  --store="$SCRATCH/store.log"
live=$(sed -n 's/^log records: [0-9]* (\([0-9]*\) live entries)$/\1/p' \
  "$STDOUT")
rows=$(awk -F'|' '$3 ~ /^ *[0-9]+ *$/ { sum += $3 } END { print sum + 0 }' \
  "$STDOUT")
if [[ -z $live || $live -ne $rows ]]; then
  echo "FAIL: store-info rows sum to $rows, not the ${live:-?} live entries" >&2
  FAILURES=$((FAILURES + 1))
fi
if ! grep -q '^| embed *| 1 *| nlp ' "$STDOUT"; then
  echo "FAIL: store-info does not list the trained embeddings" >&2
  sed 's/^/  stdout: /' "$STDOUT" >&2
  FAILURES=$((FAILURES + 1))
fi

expect 0 "select embedding backend from store" -- select --domain=nlp \
  --store="$SCRATCH/store.log" --target=mnli --backend=embedding

expect 0 "select hybrid backend from store" -- select "${ARTIFACTS[@]}" \
  --backend=hybrid

### --metrics: dumps after success (exit 0), never masks a failure's code,
### and an unwritable dump path fails a successful command.

expect 0 "metrics dump to file" -- datasets --domain=nlp \
  --metrics="$SCRATCH/metrics.json"
if [[ ! -s $SCRATCH/metrics.json ]]; then
  echo "FAIL: --metrics=PATH did not write the metrics file" >&2
  FAILURES=$((FAILURES + 1))
fi

expect 0 "metrics dump to stdout" -- models --domain=cv --metrics
if ! grep -q '"counters"' "$STDOUT"; then
  echo "FAIL: --metrics did not print a metrics JSON object to stdout" >&2
  FAILURES=$((FAILURES + 1))
fi

expect 1 "failed command keeps its exit code with --metrics" -- \
  card --metrics="$SCRATCH/metrics_after_failure.json"
require_stderr_contains "error:" "failed command with --metrics"

expect 1 "unwritable metrics path fails a successful command" -- \
  datasets --domain=nlp --metrics="$SCRATCH/no/such/dir/metrics.json"
require_stderr_contains "error:" "unwritable metrics path"

if [[ $FAILURES -ne 0 ]]; then
  echo "$FAILURES exit-code audit check(s) failed" >&2
  exit 1
fi
echo "all exit-code audit checks passed"
