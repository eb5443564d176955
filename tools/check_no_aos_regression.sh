#!/usr/bin/env bash
# Static guard against AoS regressions and second paths on the
# proxy-scoring hot path.
#
# The vectorized kernels (src/transfer/kernels.cc) own all per-element
# math over contiguous rows and columns; the validating functions and
# scorers in proxy_scorer.cc check shapes and dispatch, and the
# recall-side call sites consume SoA layouts through the vec:: helpers.
# The scalar, element-at-a-time loops — the proxy kernels and the model's
# forward pass — live only in the test oracle
# (tests/transfer/reference_kernels.*). Phase 1 fetches each proxy one
# way (the flight group, which alone writes the score cache, or the
# scorer directly) and normalizes it with one min-max function. This
# script greps for the patterns that would quietly reintroduce a second
# copy of any of these — it is a tripwire, not a proof, and it runs
# exit-code-audit style as the `no_aos_regression` ctest. A file it
# checks that is missing is a failure, never a pass.
#
#   usage: check_no_aos_regression.sh <repo-root>

set -u

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <repo-root>" >&2
  exit 2
fi

ROOT=$1
SRC=$ROOT/src
FAILURES=0

fail() {
  echo "FAIL: $1" >&2
  shift
  for line in "$@"; do echo "  $line" >&2; done
  FAILURES=$((FAILURES + 1))
}

# A path a check reads that is missing is a FAIL, never a silent pass.
require() {
  [[ -e "$1" ]] && return 0
  fail "${1#"$ROOT"/} is missing — point this check at its replacement"
  return 1
}

# 1. The proxy-scoring files stay off Matrix::At: the kernels stream
#    contiguous rows and columns, and the scorers only validate and
#    dispatch.
for f in kernels.cc proxy_scorer.cc; do
  require "$SRC/transfer/$f" || continue
  hits=$(grep -n "\.At(" "$SRC/transfer/$f")
  if [[ -n "$hits" ]]; then
    fail "src/transfer/$f uses Matrix::At — stream contiguous rows instead" \
         "$hits"
  else
    echo "ok: src/transfer/$f has no element-at-a-time math"
  fi
done

# 2. The SoA forward pass: pretrained_model.cc never calls vec::Dot (the
#    AoS row-by-row dot); the per-example loop is the oracle in tests/.
if require "$SRC/model/pretrained_model.cc"; then
  hits=$(grep -n "vec::Dot(" "$SRC/model/pretrained_model.cc")
  if [[ -n "$hits" ]]; then
    fail "pretrained_model.cc calls vec::Dot — the forward pass streams the SoA prototypes" \
         "$hits"
  else
    echo "ok: pretrained_model.cc stays on the SoA forward pass"
  fi
fi

# 3. The reference kernels are a test oracle in tests/transfer/: no
#    *Reference( function exists anywhere in src/.
require "$SRC/transfer"
callers=$(grep -rn "Reference(" "$SRC" --include='*.cc' --include='*.h')
if [[ -n "$callers" ]]; then
  fail "a *Reference( function in src/ — oracles belong in tests/" \
       "$callers"
else
  echo "ok: no reference kernel in src/ (oracles live in tests/)"
fi

# 4. The recall-side call sites that were converted to SoA / row-pointer
#    form must not regrow Matrix::At loops (task_similarity.cc is the
#    Task2Vec-style ablation baseline the benches run).
for f in src/core/coarse_recall.cc bench/lib/task_similarity.cc; do
  require "$ROOT/$f" || continue
  hits=$(grep -n "\.At(" "$ROOT/$f")
  if [[ -n "$hits" ]]; then
    fail "$f reintroduced Matrix::At on the recall hot path" "$hits"
  else
    echo "ok: $f stays on the SoA/row-pointer form"
  fi
done

# Code lines of a file: comment lines dropped, so prose may name what the
# checks below forbid.
code_lines() {
  grep -vnE '^[[:space:]]*(//|#)' "$1"
}

# 5. PretrainedModel keeps its prototypes once (dimension-major) and
#    carries no test-only forward pass.
if require "$SRC/model/pretrained_model.h"; then
  hits=$(code_lines "$SRC/model/pretrained_model.h" \
    | grep -E '[A-Za-z_]*Reference[A-Za-z_]*|source_prototypes_')
  if [[ -n "$hits" ]]; then
    fail "PretrainedModel declares a *Reference member or source_prototypes_ — one SoA copy, oracles in tests/" \
         "$hits"
  else
    echo "ok: PretrainedModel keeps one prototype layout and no oracle"
  fi
fi

# 6. The flight group is the score cache's only writer: ProxyScoreCache has
#    no compute-and-insert seam of its own and no test-only Clear.
for f in transfer/score_cache.h transfer/score_cache.cc; do
  require "$SRC/$f" || continue
  hits=$(code_lines "$SRC/$f" | grep -E '\b(GetOrCompute|Clear)[[:space:]]*\(')
  if [[ -n "$hits" ]]; then
    fail "src/$f declares GetOrCompute or Clear on ProxyScoreCache — fill the cache through ProxyFlightGroup" \
         "$hits"
  else
    echo "ok: src/$f leaves filling the cache to the flight group"
  fi
done

# 7. One proxy fetch in coarse recall: exactly one GetOrCompute( call (the
#    flight group's), and no direct read of the cache.
if require "$SRC/core/coarse_recall.cc"; then
  hits=$(code_lines "$SRC/core/coarse_recall.cc" | grep -F "score_cache->")
  fetches=$(code_lines "$SRC/core/coarse_recall.cc" | grep -c "GetOrCompute(")
  if [[ -n "$hits" ]]; then
    fail "coarse_recall.cc reads the score cache directly — fetch through the flight group" \
         "$hits"
  elif [[ "$fetches" -ne 1 ]]; then
    fail "coarse_recall.cc has $fetches GetOrCompute( calls — want exactly one (the flight group's)"
  else
    echo "ok: coarse_recall.cc fetches proxies through one flight-group call"
  fi
fi

# 8. One min-max normalization in src/: vec::MinMaxNormalize in
#    src/matrix/vector_ops.cc. A definition is a column-0 line naming a
#    MinMax* function that is not a one-line declaration; call sites are
#    indented.
if [[ -e "$SRC/recall/normalize.h" ]]; then
  fail "src/recall/normalize.h is back — use vec::MinMaxNormalize"
fi
defs=$(grep -rnE '^[A-Za-z].*\bMinMax[A-Za-z]*[[:space:]]*\(' "$SRC" \
  --include='*.cc' --include='*.h' | grep -vE ';[[:space:]]*$')
count=$(printf '%s' "$defs" | grep -c .)
if [[ "$count" -ne 1 || "$defs" != "$SRC/matrix/vector_ops.cc:"* ]]; then
  fail "src/ holds $count min-max normalization definitions — want exactly one, in src/matrix/vector_ops.cc" \
       "$defs"
else
  echo "ok: one min-max normalization in src/ (vec::MinMaxNormalize)"
fi

if [[ $FAILURES -ne 0 ]]; then
  echo "$FAILURES AoS regression check(s) failed" >&2
  exit 1
fi
echo "no AoS regressions detected"
