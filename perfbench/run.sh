#!/usr/bin/env bash
# Builds borges, borgesd and the benchmark program from the checkout in
# the current directory, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload cold_point --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, binaries, corpora, artifacts and span files) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/borges" ] || [ ! -d "$root/cmd/borgesd" ]; then
	echo "perfbench: run from the root of a Borges checkout (no go.mod or cmd/ here)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
# Keep the toolchain's caches, config and temporary files, and those of
# the programs under test, inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/" ./cmd/borges ./cmd/borgesd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
