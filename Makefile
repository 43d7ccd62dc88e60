GO ?= go

.PHONY: check test bench bench-sweep

# The full gate (gofmt, vet, build, race-enabled tests, e2e smokes).
check:
	scripts/check.sh

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Parallel + cached speedup of the quick sweep -> BENCH_sweep.json.
bench-sweep:
	scripts/bench_sweep.sh
