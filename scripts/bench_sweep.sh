#!/bin/sh
# Measures the run engine's parallel and cached speedup on the quick sweep
# and records it in BENCH_sweep.json at the repo root. Pass a worker count
# to override the default of 4:
#
#	scripts/bench_sweep.sh [jobs]
#
# The harness (cmd/finereg-bench) also byte-compares the serial and
# parallel sweep tables, so this doubles as the determinism acceptance
# check on real hardware.
#
# A second pass records the single-thread cycle-loop throughput per policy
# (quick 4-SM and paper 16-SM scale) in BENCH_hotpath.json — the number
# the event-driven simulation core is measured by. The hotpath report also
# carries the `progress` block: the quick-4sm finereg cell timed with
# in-run progress sampling off and on (no-op callback, default period), so
# the observability tax is re-measured on every sweep; on_over_off should
# stay within run-to-run noise of 1.0.
set -eu
cd "$(dirname "$0")/.."

JOBS="${1:-4}"
go run ./cmd/finereg-bench -jobs "$JOBS" -out BENCH_sweep.json
go run ./cmd/finereg-bench -hotpath -out BENCH_hotpath.json
