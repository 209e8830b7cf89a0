#!/usr/bin/env bash
# End-to-end benchmark of `faerie serve`.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload all --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --selftest
#
# Builds the server and the benchmark from source in this checkout (dune,
# shared cache off so nothing is written outside it), then runs the
# benchmark. The last line of standard output is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: $root is not a faerie source checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
DUNE_CACHE=disabled dune build --root . ./bin/faerie_cli.exe \
  ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
