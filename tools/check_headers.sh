#!/bin/sh
# Header self-containedness gate (include-what-you-use-lite, satellite of
# vela_analyze): every header under src/ must compile standalone — no
# reliance on whatever its includer happened to include first. Runs as
# `ctest -L analyze` (test vela_check_headers).
#
# The per-header compiles run in parallel, one job per core, each with its
# own error file; the report is printed afterwards in sorted header order,
# so it reads the same as a serial run.
#
# Usage: check_headers.sh <c++-compiler> <repo-root>
set -u
CXX="${1:?usage: check_headers.sh <c++-compiler> <repo-root>}"
ROOT="${2:?usage: check_headers.sh <c++-compiler> <repo-root>}"
JOBS=$(nproc 2>/dev/null || echo 4)

ERRDIR=$(mktemp -d "${TMPDIR:-/tmp}/check_headers.XXXXXX") || exit 1
trap 'rm -rf "$ERRDIR"' EXIT
trap 'exit 1' INT TERM
export CXX ROOT ERRDIR

headers=$(cd "$ROOT" && find src -name '*.h' | sort)

# Each job leaves <header path with / as _>.err behind only on failure.
printf '%s\n' $headers | xargs -P "$JOBS" -n 1 sh -c '
  err="$ERRDIR/$(printf %s "$1" | tr / _).err"
  if printf "#include \"%s\"\n" "$1" | \
      "$CXX" -std=c++20 -fsyntax-only -I "$ROOT/src" -I "$ROOT" \
             -x c++ - 2>"$err"; then
    rm -f "$err"
  fi
' sh

failed=0
checked=0
for header in $headers; do
  checked=$((checked + 1))
  err="$ERRDIR/$(printf %s "$header" | tr / _).err"
  if [ -e "$err" ]; then
    echo "NOT SELF-CONTAINED: $header"
    sed 's/^/    /' "$err"
    failed=$((failed + 1))
  fi
done
echo "check_headers: $checked headers, $failed not self-contained"
[ "$failed" -eq 0 ]
