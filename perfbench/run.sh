#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-lattice --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, temporary files, the binary, traces).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
# The module replaces hdface with the checkout root, so a directory holding
# only the benchmark fails here, before anything is built or measured.
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: run from the repository root" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
# The go command's telemetry counters live under the user config directory.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
