#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.  Every build and run artifact goes
# under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory: the Go build cache, the binary, trace files and the run
# ledger.  See perfbench/README.md for the workloads and metrics.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/go/cache" "$out/go/path" "$out/go/config" "$out/go/tmp"
export GOCACHE=$out/go/cache GOPATH=$out/go/path GOMODCACHE=$out/go/path/pkg/mod
export GOTMPDIR=$out/go/tmp TMPDIR=$out/go/tmp
export XDG_CONFIG_HOME=$out/go/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
