#!/bin/sh
# Full repo gate: gofmt, vet, build, race-enabled tests. This is the one
# list of gates: `make check` and the CI check job both run this script.
set -eu
cd "$(dirname "$0")/.."

out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi
go vet ./...
go build ./...
# -short skips the multi-minute full-sweep shape tests in the root package;
# they run race-free under `make test`, and the sweep machinery they drive
# is race-tested via internal/experiments. Without -short the root package
# exceeds go test's default 10-minute timeout under the race detector.
go test -race -short -timeout 20m ./...
# Run-engine gate: a parallel mini-sweep (4 workers + shared cache) under
# the race detector, end to end through the experiments layer.
go test -race -timeout 10m -run 'TestSweepParallelWithCache|TestSweepParallelDeterminism' ./internal/experiments/
# Auditor gate: an audited end-to-end smoke sweep — every policy on a
# compute-bound and a switch-heavy workload with the runtime invariant
# auditor enabled (internal/audit); any violation fails the run.
go run ./cmd/finereg-sim -sms 2 -bench CS,MC,LB -policy all -grid-scale 0.05 -audit >/dev/null
# Serving gate: the HTTP service end to end — admission, coalescing, SSE
# streaming, load shed, graceful drain, and the byte-identical comparison
# against a direct engine run — under the race detector. Kept as its own
# line (not folded into the -short pass above) so the service smoke can
# never be silently dropped by a test-tag or -short policy change.
go test -race -count=1 -timeout 10m ./internal/serve/...
# Fleet gate: the distributed coordinator/worker path end to end under
# the race detector — rendezvous routing, the remote cache tier,
# work-stealing, and the worker-kill requeue e2e (byte-identical against
# the single-node engine). -count=1 so the kill/requeue scenario really
# re-runs every time instead of being answered from the test cache.
go test -race -count=1 -timeout 10m ./internal/fleet/...
# Telemetry gate: the in-run progress path under the race detector — the
# sampler in gpu.Run, the per-run op scopes (concurrent jobs must not
# bleed into each other's samples), the engine's sink forwarding, and the
# SSE progress stream — plus the golden matrix itself and the proof that
# sampling leaves every cell byte-identical (not -short, so both are
# skipped by the blanket race pass above and must run here).
go test -race -count=1 -timeout 10m -run 'Progress|Telemetry|Attribution|TestGoldenCycleExactness' \
	./internal/gpu/ ./internal/telemetry/ ./internal/runner/ ./internal/serve/ ./internal/audit/diff/
# Ingestion gate: user-program workloads end to end under the race
# detector — loader determinism, structured admission errors, a program
# submitted over HTTP byte-identical to the in-process run, stream
# segments and MPS-partitioned runs through runner/serve/fleet, and the
# partition instruction-count-vs-solo acceptance check — then the worked
# example through the CLI (the same loader as the service path), audited,
# as both a solo program and a partitioned concurrent stream.
go test -race -count=1 -timeout 10m -run 'TestLoad|TestProgram|TestStreamJob|TestConcurrentJob' \
	./internal/workload/ ./internal/runner/ ./internal/serve/
go test -race -count=1 -timeout 10m -run 'TestFleetRunsProgramJobs' ./internal/fleet/
go test -race -count=1 -timeout 10m -run 'TestMPS|TestRunStream|TestRunConcurrent|TestValidatePartitions|TestPartitioned' \
	./internal/experiments/ ./internal/gpu/
go run ./cmd/finereg-sim -program examples/saxpy.sasm -sms 2 -policy baseline,finereg -audit >/dev/null
go run ./cmd/finereg-sim -stream examples/saxpy.sasm,bench:CS -partitions 1,1 -sms 2 -policy baseline -audit >/dev/null
