#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it with the
# given arguments, e.g. from the repository root:
#
#   bash benchmark/run.sh --workload uniform-rw --seed 1 --seconds 10 --trace 0
#
# The build fails, and so does this script, unless the repository's
# libraries are present next to benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Every build product stays in the checkout's _build.
export DUNE_CACHE=disabled
dune build --root . ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
