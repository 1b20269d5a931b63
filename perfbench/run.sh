#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload preimage-mult --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare parent.ndjson change.ndjson
#
# Run from the repository root. Build outputs, including the Go build
# cache and the compiler's temporary files, stay under $CARGO_TARGET_DIR
# (default .bench_build) so nothing is written outside the checkout; the
# module has no dependencies beyond the parent module, so no download is
# ever attempted.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off
# The stamp's commit: PERFBENCH_COMMIT when set (a checkout without git
# history), else the repository's HEAD.
commit=${PERFBENCH_COMMIT:-$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)}
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
