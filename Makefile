GO ?= go

.PHONY: all build vet test race verify soak crash-soak perf bench bench-all serve-smoke loc clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify is the CI gate: static checks, a clean build, and the full test
# suite under the race detector (the serving layer is exercised by
# concurrent tests, so -race is not optional).
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# Fault-injection soak: the REPRO_SOAK-gated matrix (worker panics,
# allocation failures, spill-I/O errors, concurrent chaos) under the race
# detector, every query running against a deliberately low memory budget
# so the spill machinery is on the hot path throughout. CI runs this
# after verify; locally it's the fastest way to shake the degradation
# paths.
soak:
	REPRO_SOAK=1 $(GO) test -race -count=1 -run 'TestSoak' -v .
	$(GO) test -race -count=1 ./internal/govern/

# Crash-recovery soak: boots rfidserve with a WAL, ingests numbered rows
# over /v1/ingest under load, SIGKILLs the server at a random moment,
# restarts it, and asserts the recovered table is exactly a durable
# prefix of what was acknowledged (count >= acked, whole batches only,
# checksum sum(n) == count*(count-1)/2). Several kill/recover cycles.
crash-soak:
	./scripts/crash_soak.sh

# The repository's benchmark (BENCHMARK.json, benchmark/README.md): four
# workloads against a live rfidserve and the durable facade, end-to-end
# metrics untraced and the per-layer table traced. This is where a
# performance claim is measured; pass arguments with PERF_ARGS, e.g.
# `make perf PERF_ARGS="--workload export_stream --seed 3 --trace 0"`.
perf:
	bash benchmark/run.sh $(PERF_ARGS)

# Core go-bench microbenchmarks with allocation stats, in the standard
# `go test -bench` text format that benchstat consumes directly — for
# measuring while you work; nothing is recorded. REPRO_BENCH_SCALE
# enlarges the DB; the parallel-pipeline benchmark raises it to ≥70
# (~105k reads) on its own.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkLookup$$|BenchmarkParallelPipeline|BenchmarkAblationWindowParallelism|BenchmarkPlanCache|BenchmarkConcurrentClients|BenchmarkSpillOverhead|BenchmarkFirstRowLatency' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkLookupAfterIngest|BenchmarkIngestIndexed' -benchtime 400x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverhead' -benchtime 20x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkRowKeying|BenchmarkVectorized|BenchmarkColumnarScan' -benchmem ./internal/exec/

# Every benchmark, including the full paper-figure grid (slow).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Serving smoke: boots rfidserve on a random port, runs two queries whose
# NDJSON footer must be ok with row_count equal to the rows received,
# scrapes /metrics, then SIGTERM-drains it cleanly. It is a liveness
# check; served throughput and latency are measured by `make perf`.
serve-smoke:
	./scripts/serve_smoke.sh

# Go lines per package, non-test and test (root, internal/*, cmd/*,
# benchmark). Each PR pastes this table for the parent and for the
# change into CHANGES.md.
loc:
	@./scripts/loc.sh

clean:
	$(GO) clean ./...
