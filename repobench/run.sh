#!/bin/sh
# Build the program and the benchmark from source, then run one
# workload.  From the repository root:
#   sh repobench/run.sh --workload compile|exec|serve --seed N --seconds S --trace 0|1
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "repobench: run from the root of a full checkout of the repository" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# No shared dune cache: the build writes only under the checkout.
DUNE_CACHE=disabled dune build --root . ./bin/pmdp.exe ./repobench/main.exe 1>&2
mkdir -p .repobench/tmp
# Kernel sources, shared objects and probe files go under the checkout.
TMPDIR="$(pwd)/.repobench/tmp"
export TMPDIR
exec ./_build/default/repobench/main.exe --pmdp ./_build/default/bin/pmdp.exe "$@"
