#!/usr/bin/env bash
# Static guard against AoS regressions on the proxy-scoring hot path.
#
# The vectorized kernels (src/transfer/kernels.cc) own all per-element
# math over contiguous rows and columns; the validating functions and
# scorers in proxy_scorer.cc check shapes and dispatch, and the
# recall-side call sites consume SoA layouts through the vec:: helpers.
# The scalar, element-at-a-time loops live only in the test oracle
# (tests/transfer/reference_kernels.*). This script greps for the patterns
# that would quietly reintroduce them — it is a tripwire, not a proof, and
# it runs exit-code-audit style as the `no_aos_regression` ctest. A file
# it checks that is missing is a failure, never a pass.
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

# 2. The SoA forward pass: vec::Dot (the AoS row-by-row dot) must appear in
#    pretrained_model.cc only inside the retained *Reference section.
ref_line=""
if require "$SRC/model/pretrained_model.cc"; then
  ref_line=$(grep -n "ExtractFeaturesReference(" \
    "$SRC/model/pretrained_model.cc" | head -1 | cut -d: -f1)
fi
if [[ -z "$ref_line" ]]; then
  fail "pretrained_model.cc: ExtractFeaturesReference definition not found"
else
  early=$(grep -n "vec::Dot(" "$SRC/model/pretrained_model.cc" \
    | awk -F: -v ref="$ref_line" '$1 < ref')
  if [[ -n "$early" ]]; then
    fail "pretrained_model.cc calls vec::Dot on the hot path (before the Reference section at line $ref_line)" \
         "$early"
  else
    echo "ok: pretrained_model.cc keeps vec::Dot inside the Reference section"
  fi
fi

# 3. The reference kernels are a test oracle in tests/transfer/: no
#    *Reference( function exists anywhere in src/ except the model's own
#    Reference forward-pass pair (check 2).
require "$SRC/transfer"
callers=$(grep -rn "Reference(" "$SRC" --include='*.cc' --include='*.h' \
  | grep -v "^$SRC/model/pretrained_model\.\(h\|cc\):")
if [[ -n "$callers" ]]; then
  fail "a *Reference( function in src/ outside the model's Reference pair — oracles belong in tests/" \
       "$callers"
else
  echo "ok: no reference kernel in src/ (oracles live in tests/)"
fi

# 4. The recall-side call sites that were converted to SoA / row-pointer
#    form must not regrow Matrix::At loops.
for f in core/coarse_recall.cc core/task_similarity.cc; do
  require "$SRC/$f" || continue
  hits=$(grep -n "\.At(" "$SRC/$f")
  if [[ -n "$hits" ]]; then
    fail "src/$f reintroduced Matrix::At on the recall hot path" "$hits"
  else
    echo "ok: src/$f stays on the SoA/row-pointer form"
  fi
done

if [[ $FAILURES -ne 0 ]]; then
  echo "$FAILURES AoS regression check(s) failed" >&2
  exit 1
fi
echo "no AoS regressions detected"
