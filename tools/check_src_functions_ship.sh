#!/usr/bin/env bash
# Link-level guard that every function src/ defines ships.
#
# check_src_ships.sh proves every src/ header has a production includer;
# this script asks the linker the same question one function at a time. It
# builds every target of the root project with tests and benches off (which
# alone proves production links neither) and perfbench, at -O0 (so no call
# is inlined away) with -ffunction-sections -fdata-sections
# -Wl,--gc-sections. Of those, the seven shipped binaries — tps_cli,
# tps_serve, the four examples and perfbench — are checked: it fails, naming
# each one, when a strong (nm type T) tps:: function defined in a src/
# archive is kept by none of them. A function that only benches call
# belongs in bench/lib/, one that only tests call in tests/, and one that
# nothing calls is deleted. There is no allowlist.
#
# It cannot see header-inline or template code (weak symbols, never in an
# archive as type T), nor a virtual function that a kept vtable holds on to
# whether or not anything calls it.
#
# The two -O0 builds take about a minute at -j4, so this runs as a CI step
# of the no-test-oracles job rather than as a ctest.
#
#   usage: check_src_functions_ship.sh <repo-root> [<build-dir>]
#
# <build-dir> keeps the builds for an incremental rerun; without it they go
# to a temporary directory that is removed on exit.

set -u

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <repo-root> [<build-dir>]" >&2
  exit 2
fi

ROOT=$(cd "$1" && pwd) || exit 2
if [[ $# -eq 2 ]]; then
  mkdir -p "$2" || exit 2
  WORK=$(cd "$2" && pwd)
else
  WORK=$(mktemp -d "${TMPDIR:-/tmp}/tps-gc.XXXXXX") || exit 2
  trap 'rm -rf "$WORK"' EXIT
fi
JOBS=$(nproc 2>/dev/null || echo 2)

GC_FLAGS=(
  -DCMAKE_BUILD_TYPE=Debug
  -DCMAKE_CXX_FLAGS_DEBUG=-O0
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)
LOG=$WORK/build.log
: > "$LOG"

build() {  # build <source-dir> <build-dir> <target>... [-- <cmake-arg>...]
  local src=$1 dir=$2
  shift 2
  local targets=() args=()
  while [[ $# -gt 0 && $1 != -- ]]; do targets+=("$1"); shift; done
  [[ $# -gt 0 ]] && shift
  args=("$@")
  if ! cmake -S "$src" -B "$dir" "${GC_FLAGS[@]}" "${args[@]}" \
       >> "$LOG" 2>&1 ||
     ! cmake --build "$dir" -j"$JOBS" --target "${targets[@]}" \
       >> "$LOG" 2>&1; then
    tail -n 40 "$LOG" >&2
    echo "FAIL: could not build ${targets[*]} from $src (log: $LOG)" >&2
    exit 1
  fi
}

build "$ROOT" "$WORK/prod" all -- \
  -DTPS_BUILD_TESTS=OFF -DTPS_BUILD_BENCH=OFF -DTPS_BUILD_EXAMPLES=ON
build "$ROOT/perfbench" "$WORK/perfbench" perfbench

binaries=(
  "$WORK/prod/tools/tps_cli" "$WORK/prod/tools/tps_serve"
  "$WORK/prod/examples/quickstart" "$WORK/prod/examples/zoo_explorer"
  "$WORK/prod/examples/nlp_model_selection"
  "$WORK/prod/examples/cv_model_selection"
  "$WORK/perfbench/perfbench"
)
for bin in "${binaries[@]}"; do
  if [[ ! -x $bin ]]; then
    echo "FAIL: $bin was not built" >&2
    exit 1
  fi
done

archives=$(find "$WORK/prod/src" -name 'libtps_*.a' | sort)
if [[ -z $archives ]]; then
  echo "FAIL: no src/ archive under $WORK/prod/src" >&2
  exit 1
fi

# Every mangled symbol the shipped binaries define, then every strong text
# symbol the src/ archives define, as "<mangled> <demangled>".
kept=$WORK/kept.txt
defined=$WORK/defined.txt
for bin in "${binaries[@]}"; do
  nm --defined-only "$bin" | awk '{print $NF}'
done | sort -u > "$kept"
# shellcheck disable=SC2086
nm --defined-only $archives 2>/dev/null \
  | awk '$2 == "T" {print $3}' | sort -u > "$WORK/strong.txt"
c++filt < "$WORK/strong.txt" | paste -d '\t' "$WORK/strong.txt" - \
  | awk -F '\t' 'index($2, "tps::") == 1' > "$defined"
if [[ ! -s $defined ]]; then
  echo "FAIL: the src/ archives define no tps:: function" >&2
  exit 1
fi

# A function counts as shipped when any of its symbols survives in any
# binary: complete and base-object constructors share one demangled name.
dropped=$(awk -F '\t' 'NR == FNR {kept[$1] = 1; next}
  {name[$2] = 1; if ($1 in kept) ships[$2] = 1}
  END {for (n in name) if (!(n in ships)) print n}' "$kept" "$defined" \
  | LC_ALL=C sort)

total=$(cut -f2 "$defined" | sort -u | wc -l)
if [[ -n $dropped ]]; then
  count=$(echo "$dropped" | wc -l)
  echo "FAIL: $count of $total tps:: functions defined in src/ ship in no" \
       "binary (tps_cli, tps_serve, the examples, perfbench) — move them to" \
       "bench/lib/ or tests/, or delete them:" >&2
  echo "$dropped" | sed 's/^/  /' >&2
  exit 1
fi
echo "all $total tps:: functions defined in src/ ship"
