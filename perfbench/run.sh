#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root.  Build output goes to stderr, so the
# last line of stdout is the JSON result.  Everything is built inside
# the checkout (_build), with dune's shared cache off.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
