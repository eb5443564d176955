#!/usr/bin/env bash
# Static guard that src/ holds only code that ships.
#
# The production libraries (DESIGN.md "Layout") carry what the server, the
# CLI, perfbench or the examples reach. Paper ablation baselines that only
# the benches run live in bench/lib/, and test doubles and oracles live in
# tests/. This script fails when a src/**/*.h header is #included from
# nowhere in src/ (its own .cc aside), tools/, perfbench/ or examples/: such
# a module has no production user, so it belongs in bench/lib/ or tests/,
# or should be deleted. It also fails when a std::ifstream/std::ofstream
# appears in src/ outside src/util/env.cc: every byte the library reads or
# writes goes through Env, where FaultInjectingEnv and the crash-point
# suite reach it. It is a tripwire, not a proof, and it runs
# exit-code-audit style as the `src_ships` ctest.
#
#   usage: check_src_ships.sh <repo-root>

set -u

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <repo-root>" >&2
  exit 2
fi

ROOT=$1
SCANNED=(src tools perfbench examples)
FAILURES=0

fail() {
  echo "FAIL: $1" >&2
  shift
  for line in "$@"; do echo "  $line" >&2; done
  FAILURES=$((FAILURES + 1))
}

# 1. Every scanned directory must exist: a renamed or missing one would
#    silently drop its includes and make live headers look orphaned, or
#    (for src/) leave nothing to check at all.
missing=0
for dir in "${SCANNED[@]}"; do
  if [[ ! -d $ROOT/$dir ]]; then
    fail "$dir/ is missing — cannot check who includes src/ headers"
    missing=1
  fi
done

if [[ $missing -eq 0 ]]; then
  # 2. Every src/ header has an includer outside its own .cc. The include
  #    lines are collected once, as "<file>:<line>" with repo-relative paths.
  includes=$(cd "$ROOT" && grep -rE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"' \
    --include='*.h' --include='*.cc' --include='*.cpp' "${SCANNED[@]}")
  headers=$(cd "$ROOT/src" && find . -name '*.h' | sed 's|^\./||' | sort)
  if [[ -z $headers ]]; then
    fail "src/ holds no headers — nothing to check"
  fi
  orphans=()
  for header in $headers; do
    own_cc="src/${header%.h}.cc"
    if ! echo "$includes" | grep -F "\"$header\"" | grep -vq "^$own_cc:"; then
      orphans+=("src/$header")
    fi
  done
  if [[ ${#orphans[@]} -ne 0 ]]; then
    fail "${#orphans[@]} src/ header(s) have no includer in ${SCANNED[*]} (own .cc aside) — move them to bench/lib/ or tests/, or delete them" \
         "${orphans[@]}"
  else
    echo "ok: every src/ header is included from ${SCANNED[*]}"
  fi
fi

# 3. File streams live only behind Env (src/util/env.cc): a second file
#    path bypasses checksums, torn-tail recovery and fault injection.
if [[ -d $ROOT/src ]]; then
  streams=$(cd "$ROOT" && grep -rnE 'std::(i|o)?fstream' \
    --include='*.h' --include='*.cc' src | grep -v '^src/util/env\.cc:')
  if [[ -n $streams ]]; then
    fail "file streams outside src/util/env.cc — read and write through Env" \
         "$streams"
  else
    echo "ok: no file stream in src/ outside src/util/env.cc"
  fi
fi

if [[ $FAILURES -ne 0 ]]; then
  echo "$FAILURES src-ships check(s) failed" >&2
  exit 1
fi
echo "src/ holds only code that ships"
