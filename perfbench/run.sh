#!/usr/bin/env bash
# run.sh builds the benchmark from this checkout's sources, and for the
# daemon workloads (backlog_drain, steady_bare) the routerd and endpointd
# binaries they drive, then runs it with the given arguments:
#
#     bash perfbench/run.sh --workload backlog_drain --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ and .bench_out/ in that root.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/endpointd" ] || [ ! -d "$root/cmd/routerd" ]; then
    echo "perfbench: run from the repository root (go.mod, cmd/endpointd and cmd/routerd are needed)" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOFLAGS=

case " $* " in
    *backlog_drain*|*steady_bare*) go build -o "$build/bin/" ./cmd/endpointd ./cmd/routerd ;;
esac
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
