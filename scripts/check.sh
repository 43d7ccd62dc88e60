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

# gate REGEX PKG... runs the selected tests under the race detector
# (-count=1: never answered from the test cache) and fails if any listed
# package matched no test, so a rename or deletion can never silently
# empty a gate. gate_flags replaces "-race -count=1" for the gates that
# need other flags.
gate_flags="-race -count=1"
gate() {
	regex=$1
	shift
	if ! out=$(go test $gate_flags -timeout 10m -run "$regex" "$@" 2>&1); then
		echo "$out"
		exit 1
	fi
	echo "$out"
	if echo "$out" | grep -q 'no tests to run'; then
		echo "check.sh: gate -run '$regex' selected no test in a listed package (above)"
		exit 1
	fi
}

# -short skips the multi-minute full-sweep shape tests in the root package;
# they run race-free under `make test`, and the sweep machinery they drive
# is race-tested via internal/experiments. Without -short the root package
# exceeds go test's default 10-minute timeout under the race detector.
go test -race -short -timeout 20m ./...
# Per-layer benchmarks (internal/sm, internal/mem, internal/core,
# internal/regfile, internal/runner, internal/serve, and the root package's
# trace-sink ones), one iteration each: not a measurement, only proof that
# they still build and run.
go test -run '^$' -bench . -benchtime 1x ./internal/sm ./internal/mem ./internal/core ./internal/regfile ./internal/runner ./internal/serve
go test -run '^$' -bench Trace -benchtime 1x .
# Run-engine gate: a parallel mini-sweep (4 workers + shared cache) under
# the race detector, end to end through the experiments layer.
gate 'TestSweepParallelWithCache|TestSweepParallelDeterminism' ./internal/experiments/
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
# the race detector — rendezvous routing, placement on the best free node
# slot, and the worker-kill requeue e2e
# (byte-identical against the single-node engine). -count=1 so the
# kill/requeue scenario really re-runs every time instead of being answered
# from the test cache. By name too: a full primary passes a job down its
# rendezvous order, a node never holds more than Slots jobs, and a wait for
# a slot ends with the job's context. Probing is the fleet's membership: it
# demotes a failing node and revives it, and a probe wedged on a worker's
# /healthz cannot hold Shutdown.
go test -race -count=1 -timeout 10m ./internal/fleet/...
gate 'TestFleetWorkStealing' ./internal/fleet/
gate 'TestDispatchHonorsSlots' ./internal/fleet/
gate 'TestSlotWaitEndsWithContext' ./internal/fleet/
gate 'TestProbeDemotesAndRevives' ./internal/fleet/
gate 'TestShutdownNotHeldByWedgedProbe' ./internal/fleet/
# One-path gate, by name so a rename cannot silently skip one: concurrent
# callers coalesce on the engine-wide in-flight entry; a failed record is
# re-run, not answered from; a coordinator's engine counts what passes
# through it; and the dispatcher follows a job on the worker's event stream
# — one status fetch, a stream that ends early requeues, a resubscription
# relays nothing twice.
gate 'TestConcurrentCallersCoalesce' ./internal/runner/
gate 'TestFailedJobResubmissionReruns' ./internal/serve/
gate 'TestCoordinatorEngineCounts' ./internal/fleet/
gate 'TestFleetOneStatusFetchPerJob' ./internal/fleet/
gate 'TestFleetStreamEndRequeues' ./internal/fleet/
gate 'TestFleetResubscribeCountsOnce' ./internal/fleet/
# Stream gate, likewise by name: a job's event log is its stream — a
# subscriber that stalls reads the newest window, Final sample and finish
# included, with the pruned samples counted as dropped; the log keeps its
# window and ends with finish — and a -nodes seed joins through AddWorker.
gate 'TestStalledSubscriberReadsNewestWindow' ./internal/serve/
gate 'TestRecordProgressBounds' ./internal/serve/
gate 'TestSeedNodeNormalized' ./internal/fleet/
# One-hop gate, likewise by name: a remote server is an executor behind the
# caller's engine (counters, events, a cached repeat that sends nothing); a
# shed is waited out, a version-skewed server or worker never commits, the
# engine's Timeout cancels the hop; a 429 requeues one task and demotes
# nobody; a coordinator shuts down twice.
gate 'TestEndToEndByteIdentical' ./internal/serve/
gate 'TestClientShedBackoff' ./internal/serve/
gate 'TestExecuteRejectsForeignFingerprint' ./internal/serve/
gate 'TestExecuteTimeoutCancelsRequests' ./internal/serve/
gate 'TestFleetShedRequeuesWithoutDemoting' ./internal/fleet/
gate 'TestFleetSkewedWorkerNeverCommits' ./internal/fleet/
gate 'TestCoordinatorShutdownTwice' ./internal/fleet/
# Trace gate, likewise by name: the Chrome JSON, stall table and timeline
# table of five traced runs match their pinned digests; workers that join
# late each grow the coordinator's pool; a progress sample crosses SSE
# whole.
gate 'TestTraceOutputPinned' ./internal/trace/
gate 'TestCoordinatorSaturatesLateWorkers' ./internal/fleet/
gate 'TestProgressSampleCrossesSSEWhole' ./internal/serve/
# Allocation gate, likewise by name: the bytes the leaner encode and decode
# paths must not move — a response is json.Marshal's plus a newline, a job
# key equals the Marshal-then-hash reference, a long event still decodes —
# the client's bounded drain, and the int32 scoreboard's ceiling: a
# saturated entry stays pending, a warp context stays in its size class, a
# budget of 2^31 is a 400, and a later arrival ends the run at the guard.
gate 'TestWriteJSONIsMarshalPlusNewline' ./internal/serve/
gate 'TestJobKeyMatchesReference' ./internal/audit/diff/
gate 'TestStreamEventsDecodesLongEvent' ./internal/serve/
gate 'TestCallDrainIsBounded' ./internal/serve/
gate 'TestSaturatedReadyStaysPending' ./internal/sm/
gate 'TestWarpFits448SizeClass' ./internal/sm/
gate 'TestCycleBudgetPastScoreboardRejected' ./internal/serve/
gate 'TestCycleBudgetBelowScoreboardWidth' ./internal/gpu/
# Progress gate: the in-run observation path under the race detector —
# the sampler in gpu.Run, per-job exactness of the Ops deltas (every
# mapped op of two concurrent jobs sums to its own Metrics), the engine's
# sink forwarding, the SSE progress stream and the /metrics totals fed by
# it — plus the golden matrix itself and the proof that sampling leaves
# every cell byte-identical (not -short, so both are skipped by the
# blanket race pass above and must run here).
gate 'Progress|Attribution|TestGoldenCycleExactness' \
	./internal/gpu/ ./internal/runner/ ./internal/serve/ ./internal/audit/diff/
# ...and the equivalence tests that let the switch path change under that
# matrix: the ready mask against the sorted partition, the PCRF against a
# map from chain head to length (and a second release refused), a re-armed
# warp context against a fresh one, and the pool's lifetime rules.
gate 'TestReadyMaskMatchesSortedPartition|TestPCRFMatchesCount|TestPCRFDoubleReleasePanics|TestReusedWarpEqualsFresh|TestPoolLifetimeRules' \
	./internal/sm/ ./internal/core/
# Cache gate, likewise by name: recency-ordered sets against the stamp-scan
# LRU reference, one 8-byte tag per line and nothing else, and the
# associativity guard at the cache and at admission.
gate 'TestCacheMatchesReferenceLRU|TestNewCacheBytesPerLine|TestCheckGeometryMatchesNewCache' ./internal/mem/
gate 'TestAbsurdCacheSizesRejected' ./internal/serve/
# Admission gate, likewise by name: the queue is one FIFO channel — queued
# jobs start in arrival order, and a batch larger than the free room is shed
# whole — and the SM fields that size a worker's arrays are bounded at
# validation, so an oversized one is a 400, not an out-of-memory kill.
gate 'TestFIFODequeueOrder|TestBatchPartialFitShedsWhole' ./internal/serve/
gate 'TestValidateBoundsSMArrays' ./internal/runner/
# Recycling gate, likewise by name: a released machine's SMs serve the next
# run. After runs that leave the most behind, the golden matrix, audited,
# still reproduces the goldens (not -short); a reused CTA record equals a
# fresh one; concurrent runs of two shapes, recycling each other's SMs, match
# their serial results (three times over); a Stop that lands after the
# release reaches only the dead machine; admission bounds the whole machine
# (gpu.MachineBytes), whose count tracks what a machine allocates; and a
# warm run allocates no machine (those two without the race detector, whose
# instrumentation allocates on its own account).
gate 'TestRecycledMachineMatchesFresh' ./internal/audit/diff/
gate 'TestReusedCTAEqualsFresh' ./internal/sm/
gate 'TestLateStopReachesDeadMachine' ./internal/runner/
gate_flags="-race -count=3"
gate 'TestConcurrentRecycling' .
gate_flags="-count=1"
gate 'TestWarmRunAllocatesNoMachine' .
gate 'TestMachineBytesTracksNew' ./internal/gpu/
# Program-table gate: a warm lookup allocates nothing (no race detector, as
# above); the table stays within its bounds and keys a profile by what
# generate reads; no run writes a shared program value (hashed around the
# golden matrix, not -short); concurrent jobs of one profile share its entry
# (three times over); and admission refuses a profile the generator refuses,
# so a worker never sees one.
gate 'TestWarmLookupAllocatesNothing' ./internal/kernels/
gate_flags="-race -count=1"
gate 'TestProgramTableBounded|TestGenKeyCoversGenerate' ./internal/kernels/
gate 'TestProgramValuesImmutable' ./internal/audit/diff/
gate 'TestAdmissionRefusesUnbuildableProfiles' ./internal/runner/
gate 'TestUnbuildableProfileRefusedAtAdmission' ./internal/serve/
gate_flags="-race -count=3"
gate 'TestConcurrentJobsShareOneProgram' ./internal/runner/
gate_flags="-race -count=1"
# Policy gate: the SM's first-match resident selectors against the lowest-ID
# scans they replaced, the two "VT plus nothing" degenerations of the
# policies that embed VT's switch, and the documented extension path (a
# policy of your own on an sm.Ledger, audited).
gate 'TestSelectorsMatchLowestIDScan|TestRegMutexZeroSRPEqualsVT|TestRegDRAMCapZeroEqualsVT' \
	./internal/gpu/ ./internal/regfile/
go run ./examples/custompolicy >/dev/null
# Event-order gate: the wake ring and event queue against the sort that is
# the specification (DESIGN.md §4), and — on the golden matrix, so not
# -short — the proofs that the ring is only an implementation of it and that
# same-cycle wake-ups commute.
gate 'TestEventOrderMatchesSpec|TestCompactionKeepsPendingWakes' ./internal/sm/
gate 'TestWakeRingIsPureImplementation|TestSameCycleWakeOrderUnobservable' ./internal/audit/diff/
# Ingestion gate: user-program workloads end to end under the race
# detector — loader determinism, structured admission errors, a program
# submitted over HTTP byte-identical to the in-process run through
# runner/serve/fleet, a job of two programs refused on field "programs",
# and the request-body bound sized for one maximal program — then the
# worked example through the CLI (the same loader as the service path),
# audited.
gate 'TestLoad|TestProgram' \
	./internal/workload/ ./internal/runner/ ./internal/serve/
gate 'TestOneProgramPerJob|TestBodyBoundFitsOneProgram' ./internal/serve/
gate 'TestFleetRunsProgramJobs' ./internal/fleet/
go run ./cmd/finereg-sim -program examples/saxpy.sasm -sms 2 -policy baseline,finereg -audit >/dev/null
# Grid-accounting gate: each grid:* audit rule fires on the quantity it
# guards.
gate 'TestCheckGridRules' ./internal/audit/
# Post-dominator gate: the fixpoint against the brute-force definition on
# random CFGs with several exits and loops, and reconvergence points for
# every generator; then the liveness dump of every benchmark, each in
# bounded time (a CFG with two exits once made it spin).
gate 'TestPostDominatorsMatchBruteForce|TestImmediatePostDomReturnsForEveryGenerator' ./internal/liveness/
for b in BF BI CS FD KM MC NW ST SY2 AT CF HS LI LB SG SR2 TA TR; do
	timeout 20 go run ./cmd/finereg-liveness -bench "$b" >/dev/null
done
# Front-door gate: every binary is executed, not only finereg-sim — the
# traced run and the liveness dump end to end, and flag registration of the
# three that would otherwise need a server or minutes (-h must exit 0). The
# vanishing -grid-scale must run one CTA, not fall through to the reference
# grid (440 924 cycles): the cycles column stays under 20 000.
go run ./cmd/finereg-trace -bench CS -config finereg -sms 2 -grid-scale 0.05 -out '' -timeline 0 >/dev/null
go run ./cmd/finereg-sim -sms 2 -bench CS -policy baseline -grid-scale 0.0001 |
	awk '$1 == "CS/baseline" { seen = 1; if ($3 + 0 < 1 || $3 + 0 >= 20000) bad = 1 } END { exit !seen || bad }'
go run ./cmd/finereg-liveness -bench CS >/dev/null
for bin in finereg-serve finereg-fleet finereg-experiments; do
	go run ./cmd/$bin -h >/dev/null 2>&1
done
# ...and the remote mode end to end: Figure 4 through a finereg-serve on a
# loopback port, and then through a finereg-fleet whose one node is that
# server, must print what the in-process run prints (modulo the timing
# line), the client's engine must have counted its six jobs each time, and
# both servers must drain cleanly on SIGTERM.
tmp=$(mktemp -d)
srv=
fleet=
trap 'for p in $fleet $srv; do kill "$p" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./cmd/finereg-serve ./cmd/finereg-fleet ./cmd/finereg-experiments
# listening NAME prints the address NAME logged to $tmp/NAME.err once it is
# listening, or fails the gate after 10 s.
listening() {
	tries=0
	while [ "$tries" -lt 100 ]; do
		a=$(sed -n "s/^$1: listening on //p" "$tmp/$1.err")
		if [ -n "$a" ]; then
			echo "$a"
			return
		fi
		sleep 0.1
		tries=$((tries + 1))
	done
	echo "check.sh: $1 never started listening" >&2
	cat "$tmp/$1.err" >&2
	exit 1
}
# remote_f4 URL runs Figure 4 against the server at URL.
remote_f4() {
	"$tmp/finereg-experiments" -quick -only f4 -no-cache -server "$1" 2>"$tmp/remote.err" |
		grep -v '^(f4 in ' >"$tmp/remote.out"
	diff "$tmp/local.out" "$tmp/remote.out"
	if ! grep -q 'engine: 6 submitted, 6 simulated' "$tmp/remote.err"; then
		echo "check.sh: the -server $1 run's engine summary does not count its six jobs:"
		cat "$tmp/remote.err"
		exit 1
	fi
}
"$tmp/finereg-serve" -addr 127.0.0.1:0 -no-cache -quiet 2>"$tmp/finereg-serve.err" &
srv=$!
addr=$(listening finereg-serve)
"$tmp/finereg-experiments" -quick -only f4 -no-cache 2>/dev/null | grep -v '^(f4 in ' >"$tmp/local.out"
remote_f4 "http://$addr"
"$tmp/finereg-fleet" -addr 127.0.0.1:0 -no-cache -nodes "http://$addr" 2>"$tmp/finereg-fleet.err" &
fleet=$!
faddr=$(listening finereg-fleet)
remote_f4 "http://$faddr"
kill -TERM "$fleet"
wait "$fleet"
fleet=
kill -TERM "$srv"
wait "$srv"
srv=
# Record gate: the whole quick-scale suite through the binary must print the
# pinned record once the timing lines are dropped — the file
# TestQuickRecordPinned compares registry entry by entry, here end to end
# through flag parsing and the one loop (≈ 90 s on 2 vCPU; not a -race
# build, which would take ten times that) — and an unknown -only id must
# exit 2 naming the registry's ids, which are the record's section headers.
record=internal/experiments/testdata/quick.txt
"$tmp/finereg-experiments" -quick -no-cache 2>/dev/null | grep -v '^([a-z0-9]* in [0-9.]*s)$' >"$tmp/quick.out"
cmp "$tmp/quick.out" "$record"
ids=$(sed -n 's/^==== \([a-z0-9]*\) (.*/\1/p' "$record" | paste -sd, -)
rc=0
"$tmp/finereg-experiments" -only bogus >/dev/null 2>"$tmp/bogus.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -qF "(valid: $ids)" "$tmp/bogus.err"; then
	echo "check.sh: -only bogus exited $rc, want 2 with the registry's ids ($ids) on stderr:"
	cat "$tmp/bogus.err"
	exit 1
fi
# ...and the functional executor that lives with its one user.
go run ./examples/vecadd >/dev/null
