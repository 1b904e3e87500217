#!/usr/bin/env bash
# Builds the benchmark ledger from the sources of the checkout it is run
# from (the directory holding BENCHMARK.json and dune-project), then runs
# it with the given arguments. Build output goes to stderr, so the last
# line of stdout stays the ledger's result; with dune's shared cache off,
# the build writes only under the checkout's _build.
set -eo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled --display quiet ./bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
