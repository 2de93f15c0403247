#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload engine-hot --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOTELEMETRY=off

# The commit when run from a git checkout; otherwise a digest of the Go
# sources, which identifies the code just as well.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null) ||
	commit="src-sha256:$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
go -C "$root/perfbench" build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" -commit "$commit" -out "$out/perfbench" "$@"
