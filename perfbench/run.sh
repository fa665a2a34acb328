#!/usr/bin/env bash
# Builds the AIMS benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands in
# .bench_build/ under that root: the Go build cache, the binary, scratch
# journal directories and the trace files of traced runs.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

# Keep every cache and config the Go toolchain writes inside out/.
# The benchmark module replaces "aims" with the tree above it, so the
# build fails (non-zero, no result line) when the AIMS sources are absent.
(
	export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gopath/pkg/mod"
	export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
	mkdir -p "$GOCACHE" "$GOTMPDIR"
	cd "$root/perfbench" && go build -buildvcs=false -o "$out/aimsbench" .
)

commit=none
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi
exec "$out/aimsbench" -root "$root" -commit "$commit" "$@"
