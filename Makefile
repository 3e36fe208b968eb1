# Convenience targets mirroring CI. The bench target runs every benchmark
# gated in BENCH.json in one `go test -bench -benchmem` pass and fails on
# a large regression against its recorded numbers (cmd/benchcheck).
# The docs target runs the documentation drift gate: route list in
# docs/HTTP_API.md vs the daemon mux (cmd/docscheck), go vet, and an
# examples build.
# The chaos target runs the full randomized fault-schedule suite
# (CHAOS=1 unlocks the long multi-seed schedules; the short
# deterministic smoke variant already runs in the default test tier)
# under the race detector, alongside every internal/store test (its
# fault-injection tests among them, in well under a second) and the
# engine degraded-mode tests.

.PHONY: build test race bench docs chaos

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go run ./cmd/benchcheck

docs:
	go vet ./...
	go build ./examples/...
	go run ./cmd/docscheck

chaos:
	CHAOS=1 go test -race -count=1 -run '^TestChaos' ./cmd/thirstyflopsd
	go test -race -count=1 ./internal/store
	go test -race -count=1 -run 'Fault|Wedge|Degraded|Panic|Resilience|Breaker' ./...
