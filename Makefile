GO ?= go

# tier1 is the CI gate: static checks (gofmt lists no file, go vet) plus
# the full test suite under the race detector (the exploration fan-out is
# lock-free and must stay clean), plus a short real fuzz of every decoder.
.PHONY: tier1
tier1: fmt vet race fuzz-smoke

.PHONY: fmt
fmt:
	test -z "$$(gofmt -l .)"

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: test
test:
	$(GO) build ./... && $(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# bench-search refreshes BENCH_search.json: the same seeded NSGA-II run
# at 1/2/4/8 workers against a latency-modelled evaluation backend. Fails
# if the 8-worker speedup drops below 3x or any worker count diverges
# from the serial run.
.PHONY: bench-search
bench-search:
	$(GO) run scripts/benchsearch.go

# bench-incremental refreshes BENCH_incremental.json: raw columnar replay
# throughput against the frozen pre-Replayer baseline. Fails if columnar
# replay drops below 1.5x or any replay diverges bit-wise.
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
# the result-store loader (whose seeds include the pool-run lines older
# stores wrote, which must load as dropped), on the coordinator's
# checkpoint replay, job submission endpoint and worker RPC bodies, on
# the indexed-vs-linear free list and on the ID table against a Go-map
# reference compiler. Minimizing is off: shrinking each new input grown
# from the large workload seeds would spend the whole run, leaving no
# time to mutate.
FUZZ = -run '^$$' -fuzztime 5s -fuzzminimizetime 0s
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test ./internal/trace/ $(FUZZ) -fuzz '^FuzzReadBinary$$'
	$(GO) test ./internal/trace/ $(FUZZ) -fuzz '^FuzzReadText$$'
	$(GO) test ./internal/trace/ $(FUZZ) -fuzz '^FuzzCompile$$'
	$(GO) test ./internal/profile/ $(FUZZ) -fuzz '^FuzzParseLog$$'
	$(GO) test ./internal/core/ $(FUZZ) -fuzz '^FuzzOpenStore$$'
	$(GO) test ./internal/serve/ $(FUZZ) -fuzz '^FuzzCheckpointReplay$$'
	$(GO) test ./internal/serve/ $(FUZZ) -fuzz '^FuzzSubmitJob$$'
	$(GO) test ./internal/serve/ $(FUZZ) -fuzz '^FuzzCoordinatorRPC$$'
	$(GO) test ./internal/alloc/ $(FUZZ) -fuzz '^FuzzFreeList$$'

# mutants runs each committed mutant (internal/mutant, DESIGN.md §19)
# against its killer tests, built with -tags mutants, and fails if any
# killer passes with the mutant on. Each killer must first pass with no
# mutant, so a test that fails anyway kills nothing. An entry is
# mutant:package:test[,test...].
MUTANTS = \
	partition-no-gap-reset:./internal/profile/:TestComposeSharedLayerPeakAfterReclaim \
	recording-untruncated:./internal/core/:TestWarmIncrementalMatchesFresh \
	flat-failed-charged:./internal/profile/:TestReplayerMatchesReferenceOOM \
	pool-zero-general:./internal/alloc/:TestComposedRejectsMisroutedPtr \
	pooled-trace-kept:./internal/profile/:TestWarmReplayerMatchesFresh \
	failed-ptr-kept:./internal/profile/:TestWarmReplayerFailedAllocsForgetLastRun \
	compose-last-fstep-dropped:./internal/profile/:TestComposeSharedLayerPeakAtLastGap
.PHONY: mutants
mutants:
	@for m in $(MUTANTS); do \
		name=$${m%%:*}; rest=$${m#*:}; pkg=$${rest%%:*}; \
		for t in $$(echo $${rest#*:} | tr , ' '); do \
			$(GO) test -count=1 -tags mutants -run "^$$t\$$" $$pkg >/dev/null || \
				{ echo "mutants: $$t fails with no mutant"; exit 1; }; \
			if DM_MUTANT=$$name $(GO) test -count=1 -tags mutants -run "^$$t\$$" $$pkg >/dev/null 2>&1; then \
				echo "mutants: $$name survives $$t"; exit 1; \
			fi; \
			echo "mutants: $$name killed by $$t"; \
		done; \
	done

# bench-telemetry compares the instrumented steady-state replay loop
# (a warm Run plus the full-sim span record a session worker adds)
# against the plain one: the ratio of the two events/s figures is the
# overhead (budget <2%). perfbench's trace_run.overhead_frac tracks it end to end.
.PHONY: bench-telemetry
bench-telemetry:
	$(GO) test ./internal/profile/ -run '^$$' -bench 'BenchmarkReplay(Easyport|Telemetry)' -benchtime 2s -benchmem

# bench-observe gates the observability layer: the same seeded NSGA-II
# search with the span flight recorder attached and without must match
# bit-for-bit (evaluation sequence, metrics, provenance) at 1 and 4
# workers, and recording must cost at most 2% of wall time (interleaved
# best-of-N minimums). Writes BENCH_observe.json plus the CI artifacts
# results/observe/run.trace.json (Perfetto-loadable) and
# results/observe/metrics.txt (the /metrics exposition).
.PHONY: bench-observe
bench-observe:
	$(GO) run scripts/benchobserve.go
