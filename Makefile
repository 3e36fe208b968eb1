# Convenience targets mirroring CI. The bench targets run the gated
# benchmark sets with -benchmem and fail on large regressions against the
# committed baselines (generous time ratio for machine variance, tight
# allocation ratio because allocation counts are near-deterministic):
# bench-core gates the modeling hot paths against BENCH_PR2.json,
# bench-daemon gates the thirstyflopsd HTTP serving path (concurrent
# /assess throughput, live assess, NDJSON ingest) against BENCH_PR3.json,
# bench-plan gates the substrate-aware sweep planner (planned shuffled
# sweep, plan construction) against BENCH_PR4.json,
# bench-store gates the persistence tier (record append, disk get, warm
# boot of a 10k-entry log, and the engine-level disk-hit vs isolated
# recompute pair) against BENCH_PR5.json,
# bench-statsd gates the UDP telemetry plane (zero-allocation line
# parser, per-datagram aggregate path, end-to-end loopback ingest)
# against BENCH_PR6.json,
# bench-wire gates the negotiated serving codecs (binary wire frame vs
# JSON for full-year series results, NDJSON job-result streaming, and
# the encode/decode micro-benches behind them) against BENCH_PR8.json,
# bench-watch gates the live push hub (publish-to-last-delivery fanout
# latency at 1/100/1000 subscribers, per-event allocation flatness)
# against BENCH_PR9.json,
# bench-gang gates the fleet-wide gang scheduler (four concurrent
# overlapping sweeps merged into one substrate-affine schedule vs
# per-batch planning, with a substrate generations/op column) against
# BENCH_PR10.json.
# The docs target runs the documentation drift gate: route list in
# docs/HTTP_API.md vs the daemon mux (cmd/docscheck), go vet, and an
# examples build.
# The chaos target runs the full randomized fault-schedule suite
# (CHAOS=1 unlocks the long multi-seed schedules; the short
# deterministic smoke variant already runs in the default test tier)
# under the race detector, alongside the store fault-injection and
# engine degraded-mode tests.

GATED_BENCHES = ^(BenchmarkEngineAssessCold|BenchmarkEngineAssessColdIsolated|BenchmarkEngineAssessLiveTick|BenchmarkEngineAssessCached|BenchmarkConfigFingerprint|BenchmarkAssessYear|BenchmarkFCFS|BenchmarkEASYBackfill|BenchmarkStartTimeRanking|BenchmarkStartTimeRankingFullYear|BenchmarkWUECurveSeries|BenchmarkWUECurveTable|BenchmarkWeatherYear|BenchmarkGridYear)$$

GATED_DAEMON_BENCHES = ^(BenchmarkDaemonAssess|BenchmarkDaemonAssessLive|BenchmarkDaemonIngest)$$

GATED_PLAN_BENCHES = ^(BenchmarkSweepPlanned|BenchmarkPlanBuild)$$

GATED_STORE_BENCHES = ^(BenchmarkStoreAppend|BenchmarkStoreGet|BenchmarkWarmStart|BenchmarkEngineWarmStartDisk|BenchmarkEngineAssessColdIsolated)$$

GATED_STATSD_BENCHES = ^(BenchmarkParseLine|BenchmarkParsePacket|BenchmarkAggregatorAccumulate|BenchmarkUDPIngest)$$

GATED_WIRE_BENCHES = ^(BenchmarkDaemonAssessWire|BenchmarkDaemonAssessSeriesJSON|BenchmarkDaemonAssessSeriesWire|BenchmarkDaemonJobResultStream|BenchmarkWireEncodeResult|BenchmarkWireEncodeSeriesResult|BenchmarkJSONEncodeSeriesResult|BenchmarkWireDecodeSeriesResult)$$

GATED_WATCH_BENCHES = ^(BenchmarkWatchFanout1|BenchmarkWatchFanout100|BenchmarkWatchFanout1000)$$

GATED_GANG_BENCHES = ^(BenchmarkConcurrentBatchesGang|BenchmarkConcurrentBatchesPerBatch)$$

.PHONY: build test race bench bench-core bench-daemon bench-plan bench-store bench-statsd bench-wire bench-watch bench-gang docs chaos

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

bench: bench-core bench-daemon bench-plan bench-store bench-statsd bench-wire bench-watch bench-gang

bench-core:
	go test -run '^$$' -bench '$(GATED_BENCHES)' -benchmem -benchtime=500ms -count=1 . \
		| go run ./cmd/benchcheck -baseline BENCH_PR2.json

bench-daemon:
	go test -run '^$$' -bench '$(GATED_DAEMON_BENCHES)' -benchmem -benchtime=500ms -count=1 ./cmd/thirstyflopsd \
		| go run ./cmd/benchcheck -baseline BENCH_PR3.json

bench-plan:
	go test -run '^$$' -bench '$(GATED_PLAN_BENCHES)' -benchmem -benchtime=500ms -count=1 . \
		| go run ./cmd/benchcheck -baseline BENCH_PR4.json

# One go test invocation over both packages so benchcheck sees the whole
# BENCH_PR5 set (store micro-benches + the engine-level warm/cold pair)
# on a single stream.
bench-store:
	go test -run '^$$' -bench '$(GATED_STORE_BENCHES)' -benchmem -benchtime=500ms -count=1 . ./internal/store \
		| go run ./cmd/benchcheck -baseline BENCH_PR5.json

bench-statsd:
	go test -run '^$$' -bench '$(GATED_STATSD_BENCHES)' -benchmem -benchtime=500ms -count=1 ./internal/statsd \
		| go run ./cmd/benchcheck -baseline BENCH_PR6.json

# One invocation over both packages so benchcheck sees the daemon-level
# negotiated paths and the wire micro-benches on a single stream.
bench-wire:
	go test -run '^$$' -bench '$(GATED_WIRE_BENCHES)' -benchmem -benchtime=500ms -count=1 ./cmd/thirstyflopsd ./internal/wire \
		| go run ./cmd/benchcheck -baseline BENCH_PR8.json

bench-watch:
	go test -run '^$$' -bench '$(GATED_WATCH_BENCHES)' -benchmem -benchtime=500ms -count=1 ./internal/watch \
		| go run ./cmd/benchcheck -baseline BENCH_PR9.json

bench-gang:
	go test -run '^$$' -bench '$(GATED_GANG_BENCHES)' -benchmem -benchtime=500ms -count=1 . \
		| go run ./cmd/benchcheck -baseline BENCH_PR10.json

docs:
	go vet ./...
	go build ./examples/...
	go run ./cmd/docscheck

chaos:
	CHAOS=1 go test -race -count=1 -run '^TestChaos' ./cmd/thirstyflopsd
	go test -race -count=1 -run 'Fault|Wedge|Degraded|Panic|Resilience|Breaker' ./...
