#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the Go toolchain writes (build cache, module
# cache, telemetry, the binary) stays under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
# The benchmark module replaces "repro" with the checkout root, so nothing
# can be built or measured without the repository sources.
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: run from the repository root" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export PERFBENCH_OUT="$out"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
