GO ?= go

# tier1 is the CI gate: static checks plus the full test suite under the
# race detector (the exploration fan-out is lock-free and must stay clean),
# plus a short real fuzz of every decoder.
.PHONY: tier1
tier1: vet race fuzz-smoke

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: test
test:
	$(GO) build ./... && $(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# bench-replay refreshes BENCH_replay.json with the replay-engine and
# runner fan-out benchmark numbers.
.PHONY: bench-replay
bench-replay:
	$(GO) run scripts/benchreplay.go

# bench-search refreshes BENCH_search.json: the same seeded NSGA-II run
# at 1/2/4/8 workers against a latency-modelled evaluation backend. Fails
# if the 8-worker speedup drops below 3x or any worker count diverges
# from the serial run.
.PHONY: bench-search
bench-search:
	$(GO) run scripts/benchsearch.go

# bench-incremental refreshes BENCH_incremental.json: raw columnar replay
# throughput against the frozen pre-Replayer baseline, and the seeded
# hill-climb over the full Easyport space with incremental re-evaluation
# off and on, in both the raw-simulation and the latency-modelled backend
# regime (the one BENCH_search.json's batched baseline is recorded in).
# Fails if columnar replay drops below 1.5x, the backend-regime effective
# evals/sec gain drops below 3x, or any run diverges bit-wise.
.PHONY: bench-incremental
bench-incremental:
	$(GO) run scripts/benchincremental.go

# bench-parse refreshes BENCH_parse.json: serial vs parallel ingestion of
# a synthetic block-framed profile log (raw and latency-modelled storage)
# plus the parallel trace-read bit-identity check. Fails if the
# latency-modelled 8-worker speedup drops below 2x, any summary diverges,
# or the parallel trace read is not bit-identical. CI runs it small; the
# committed BENCH_parse.json comes from the default 1 GiB run.
.PHONY: bench-parse
bench-parse:
	$(GO) run scripts/benchparse.go

# bench-surrogate refreshes BENCH_surrogate.json: the exact 512-simulation
# screen-and-refine of the full Easyport space against the surrogate-
# assisted run at a fifth of the budget, compared by 2-D hypervolume
# against a shared reference point. Fails if the simulation reduction
# drops below 3x, the surrogate hypervolume falls more than 5% short of
# the exact run, or any worker count diverges from the serial run.
.PHONY: bench-surrogate
bench-surrogate:
	$(GO) run scripts/benchsurrogate.go

# bench-serve gates the distributed exploration service: the same
# 512-evaluation island-model NSGA-II job (4 islands, 5 ms modelled
# backend latency per simulation) through the loopback-HTTP coordinator
# at 1, 2 and 4 single-backend workers against the serial single-process
# search. Fails if 4 workers deliver below 2.5x the serial effective
# evals/sec, or any fleet shape diverges (per-island walks and final
# front must be identical at every worker count). Writes BENCH_serve.json.
.PHONY: bench-serve
bench-serve:
	$(GO) run scripts/benchserve.go

# fuzz-smoke runs each native fuzz target for a few seconds — enough to
# execute the seed corpus plus a short mutation run on every decoder, on
# the result-store loader, on the coordinator's checkpoint replay and job
# submission endpoint, on the indexed-vs-linear free list and on the ID
# table against a Go-map reference compiler.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 5s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime 5s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzTraceFeatures$$' -fuzztime 5s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 5s
	$(GO) test ./internal/profile/ -run '^$$' -fuzz '^FuzzParseLog$$' -fuzztime 5s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzOpenStore$$' -fuzztime 5s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzCheckpointReplay$$' -fuzztime 5s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzSubmitJob$$' -fuzztime 5s
	$(GO) test ./internal/alloc/ -run '^$$' -fuzz '^FuzzFreeList$$' -fuzztime 5s

# bench-telemetry compares the instrumented steady-state replay loop
# (telemetry shard attached, as Runner workers run it) against the plain
# one. The overhead budget is <2%; benchreplay.go computes the ratio.
.PHONY: bench-telemetry
bench-telemetry:
	$(GO) test ./internal/profile/ -run '^$$' -bench 'BenchmarkReplay(Easyport|Telemetry)' -benchtime 2s -benchmem

# bench-observe gates the observability layer: the same seeded
# surrogate-assisted hill-climb with the span flight recorder attached
# and without must match bit-for-bit (evaluation sequence, metrics,
# provenance) at 1 and 4 workers, and recording must cost at most 2% of
# wall time (interleaved best-of-N minimums). Writes BENCH_observe.json
# plus the CI artifacts results/observe/run.trace.json (Perfetto-loadable)
# and results/observe/metrics.txt (the /metrics exposition).
.PHONY: bench-observe
bench-observe:
	$(GO) run scripts/benchobserve.go
