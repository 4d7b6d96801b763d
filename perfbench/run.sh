#!/usr/bin/env bash
# Build the pipeline benchmark from the source tree it sits in, then run
# it with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Fails (exit 2) without running anything
# when the tree holds no buildable project.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/main.ml ]; then
  echo "perfbench: run from the root of a ksplice_repro checkout" >&2
  exit 2
fi

# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
if ! dune build --root . --display quiet ./perfbench/main.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/main.exe "$@"
