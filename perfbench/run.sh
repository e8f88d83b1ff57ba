#!/usr/bin/env bash
# Builds the benchmark and the CLI daemon from source, then runs one
# workload. Run from the repository root:
#   bash perfbench/run.sh --workload table1 --seed 0 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/bench.exe bin/caqr_cli.exe 1>&2
if [ -d .git ] && command -v git >/dev/null; then
  PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  export PERFBENCH_COMMIT
fi
exec ./_build/default/perfbench/bench.exe "$@"
