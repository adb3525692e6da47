#!/bin/sh
# run.sh builds the benchmark and the cmd/serve binary from the checkout's
# sources, then runs one benchmark workload:
#
#	sh perfbench/run.sh --workload otis_batch --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every build product, cache and
# temporary file stays under .bench_build/ in the checkout.
set -eu

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root (perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off

go -C "$root/perfbench" build -o "$build/bin/perfbench" ./cmd/perfbench
go -C "$root/perfbench" build -o "$build/bin/serve" repro/cmd/serve

# serve_chaos runs its client and the server it starts on one CPU, the
# last (children inherit the affinity, and Go sizes GOMAXPROCS and the
# server's -workers from it). On a shared virtual machine, waking a
# thread on an idle second vCPU costs a variable delay that dominated
# the service's latency tail. The batch workloads stay unpinned: their
# op is single-threaded, and pinned they share the CPU with the
# collector.
cpu=$(($(nproc --all) - 1))
case " $* " in
*" serve_chaos "*)
	if command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
		exec taskset -c "$cpu" "$build/bin/perfbench" -serve-bin "$build/bin/serve" -out "$build" "$@"
	fi
	;;
esac
exec "$build/bin/perfbench" -serve-bin "$build/bin/serve" -out "$build" "$@"
