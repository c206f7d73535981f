#!/usr/bin/env bash
# Builds the benchmark and the frserved daemon from this checkout's
# sources, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build at the repository root).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
out="$build/perfbench"
mkdir -p "$out"

# Keep the Go toolchain's caches and config inside the build directory,
# and never reach for the network: the module has no dependencies.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/frserved" github.com/flashroute/flashroute/cmd/frserved
cd "$root"
exec "$out/perfbench" --root "$root" --frserved "$out/frserved" --out "$out" "$@"
