#!/usr/bin/env bash
# Static-analysis wall over the whole library surface: src/core, src/util,
# src/grid, src/traci, src/traffic, src/wpt, src/net, src/obs, src/persist,
# src/svc -- plus the operational binaries tools/olevd.cpp and
# tools/olev_loadgen.cpp, which sit outside src/ but ship in the same
# deliverable.
#
#   tools/lint.sh [build-dir]
#
# Stage 1 is the domain linter (tools/olev_lint.py): the dimensional-
# analysis contract -- no raw-double quantity parameters in public headers,
# no exact float equality, [[nodiscard]] solver entry points, no raw
# chrono-clock reads outside src/obs, no socket-API use outside src/svc,
# no raw std::mutex/condition_variable outside src/util/sync.h (R6), no
# raw stdout/stderr prints outside src/obs (R7), no raw file I/O outside
# src/persist and the obs sinks (R8), no svc/ include outside src/svc and
# no net/ or persist/ include in src/core (R9) --
# plus the trace-checker self-test
# (tools/check_trace.py), so a dead validator cannot rubber-stamp traces.
# Pure Python, runs everywhere.
#
# Stage 1.5 is the formatting wall (tools/format.sh): .clang-format is
# enforced on files the change touches, advisory on the rest of the tree.
#
# Stage 2 runs clang-tidy (config in .clang-tidy, WarningsAsErrors='*')
# against the compile database CMake exports.  When clang-tidy is not
# installed -- e.g. a gcc-only container -- the script degrades to a gcc
# warning wall: every translation unit is fully compiled (not just parsed,
# so flow-sensitive diagnostics like -Wmaybe-uninitialized still run) with
# -Wall -Wextra -Wpedantic -Wconversion -Wdouble-promotion -Werror.  Either
# way a non-zero exit means the wall was hit; exit 0 means the audited
# directories are clean.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${BUILD_DIR:-$ROOT/build}}"
LINT_DIRS=(src/core src/util src/grid src/traci src/traffic src/wpt src/net src/obs src/persist src/svc)

echo "lint: domain rules (tools/olev_lint.py)"
python3 "$ROOT/tools/olev_lint.py" --self-test > /dev/null
python3 "$ROOT/tools/olev_lint.py" --root "$ROOT"

echo "lint: trace checker self-test (tools/check_trace.py)"
python3 "$ROOT/tools/check_trace.py" --self-test > /dev/null

# Stage 1.5: formatting wall (.clang-format via tools/format.sh).  Enforced
# only on files the current change touches, advisory elsewhere; skips itself
# when no clang-format is installed (the CI lint job installs one).
echo "lint: formatting (tools/format.sh)"
"$ROOT/tools/format.sh"

# The compile database is exported unconditionally by the top-level
# CMakeLists (CMAKE_EXPORT_COMPILE_COMMANDS); configure on demand.
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "lint: no compile database in $BUILD_DIR; configuring..." >&2
  cmake -B "$BUILD_DIR" -S "$ROOT" > /dev/null
fi

mapfile -t sources < <(
  for dir in "${LINT_DIRS[@]}"; do
    find "$ROOT/$dir" -name '*.cc' | sort
  done
  find "$ROOT/tools" -maxdepth 1 -name '*.cpp' | sort
)
echo "lint: ${#sources[@]} translation units across ${LINT_DIRS[*]} tools"

if command -v clang-tidy > /dev/null 2>&1; then
  echo "lint: $(clang-tidy --version | head -n 1)"
  status=0
  for source in "${sources[@]}"; do
    if ! clang-tidy --quiet -p "$BUILD_DIR" "$source"; then
      status=1
      echo "lint: FAILED ${source#"$ROOT"/}" >&2
    fi
  done
  if [[ $status -ne 0 ]]; then
    echo "lint: clang-tidy wall hit; see diagnostics above" >&2
    exit 1
  fi
  echo "lint: clang-tidy clean"
else
  echo "lint: clang-tidy not found; falling back to the gcc warning wall" >&2
  : "${CXX:=g++}"
  status=0
  for source in "${sources[@]}"; do
    if ! "$CXX" -std=c++20 -O2 -Wall -Wextra -Wpedantic -Wconversion \
        -Wdouble-promotion -Werror \
        -I "$ROOT/src" -c "$source" -o /dev/null; then
      status=1
      echo "lint: FAILED ${source#"$ROOT"/}" >&2
    fi
  done
  if [[ $status -ne 0 ]]; then
    echo "lint: gcc wall hit; see diagnostics above" >&2
    exit 1
  fi
  echo "lint: gcc warning wall clean" \
       "(-Wall -Wextra -Wpedantic -Wconversion -Wdouble-promotion -Werror)"
fi
