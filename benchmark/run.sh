#!/usr/bin/env bash
# Builds the session benchmark from source and runs it with the given flags.
# Run from the repository root, for example:
#
#   bash benchmark/run.sh --workload join2-zipf-hit --seed 1 --seconds 28 --trace 0
#   bash benchmark/run.sh -compare base.jsonl change.jsonl
#
# Everything the build and the runs write lands in .bench_build/ under the
# current directory: the Go build cache, the binary, the appended result
# records (results.jsonl) and the span files of traced runs.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/home"

# The benchmark module resolves the engine through `replace repro => ../`,
# so the build fails (and the run exits non-zero) unless the engine's
# sources sit next to the benchmark directory.
(
	cd "$src"
	HOME="$out/home" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
		GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
		go build -buildvcs=false -o "$out/sessionbench" .
)
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/sessionbench" -commit "$commit" "$@"
