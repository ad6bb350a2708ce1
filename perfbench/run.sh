#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one benchmark
# invocation.  Run from the root of a checkout:
#   bash perfbench/run.sh --workload hot-direct --seed 1 --seconds 10 --trace 0
set -euo pipefail
if [[ ! -f dune-project || ! -f bin/clara_cli.ml || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of a Clara checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build without it.
dune build --root . --cache=disabled ./bin/clara_cli.exe ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
