GO ?= go

.PHONY: check test bench

# The full gate (gofmt, vet, build, race-enabled tests, e2e smokes).
check:
	scripts/check.sh

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
