#!/usr/bin/env bash
# Build the pipeline benchmark from source, then run it with the given
# arguments, from the root of the source tree:
#   bash bench/pipeline/run.sh --workload polybench --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the benchmark's JSON summary stays the
# last line of standard output.
set -euo pipefail
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# keep every build product inside the source tree
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/pipeline/pipeline_bench.exe 1>&2
exec ./_build/default/bench/pipeline/pipeline_bench.exe "$@"
