#!/usr/bin/env bash
# Entry point of the end-to-end benchmark: builds bench/e2e/main.exe (and
# the CLI it drives) from source and runs it from the repository root with
# the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload tc-alg --seed 1 --seconds 20 --trace 0
#
# The dune cache is off, so the build writes nothing outside the tree.
set -euo pipefail
cd "$(dirname "$0")/../.."
exec dune exec --root . --cache=disabled bench/e2e/main.exe -- "$@"
