package core

import (
	"errors"
	"fmt"
	"time"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/stats"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
)

// Result is the outcome of profiling one configuration of a space.
type Result struct {
	Index   int
	Labels  []string // per-axis option labels
	Metrics *profile.Metrics
	Err     error

	// Duration is the wall time this configuration occupied a worker,
	// simulation or cache lookup included.
	Duration time.Duration
	// CacheHit marks a configuration served from the Store.
	CacheHit bool
	// MemoHit marks a configuration served from the in-run duplicate
	// memo (axis combinations collapsing to the same canonical config).
	MemoHit bool
	// Incremental marks a configuration evaluated by the partial-replay
	// path (bit-identical to a full replay, see Runner.Incremental);
	// EventsSkipped is how many trace events that avoided re-simulating.
	Incremental   bool
	EventsSkipped uint64
	// Composed marks an incremental evaluation served by composing a
	// memoized standalone general-pool run with the configuration's
	// partition — no simulation at all, O(ops) additions. Composed
	// implies Incremental.
	Composed bool
	// Origin is the configuration's search provenance (strategy, wave,
	// operator, parents), stamped by the evaluation
	// pipeline on the first exact evaluation and preserved in the
	// journal for `dmreport -lineage`.
	Origin *telemetry.Origin
}

// JournalRecord converts the result to its run-journal form.
func (r Result) JournalRecord() telemetry.Record {
	rec := telemetry.Record{
		Index:      r.Index,
		Labels:     r.Labels,
		DurationMS: float64(r.Duration.Nanoseconds()) / 1e6,
		CacheHit:   r.CacheHit,
		MemoHit:    r.MemoHit,

		Incremental:   r.Incremental,
		EventsSkipped: r.EventsSkipped,
		Composed:      r.Composed,
	}
	rec.Origin = r.Origin
	if r.Err != nil {
		rec.Error = r.Err.Error()
		return rec
	}
	if m := r.Metrics; m != nil {
		rec.Accesses = m.Accesses
		rec.FootprintBytes = m.FootprintBytes
		rec.EnergyNJ = m.EnergyNJ
		rec.Cycles = m.Cycles
		rec.Failures = m.Failures
	}
	return rec
}

// ResultFromRecord is the inverse of JournalRecord: the result a journal
// record was written from, with the metrics the journal keeps.
func ResultFromRecord(rec telemetry.Record) Result {
	res := Result{
		Index:    rec.Index,
		Labels:   rec.Labels,
		Duration: time.Duration(rec.DurationMS * 1e6),
		CacheHit: rec.CacheHit,
		MemoHit:  rec.MemoHit,

		Incremental:   rec.Incremental,
		EventsSkipped: rec.EventsSkipped,
		Composed:      rec.Composed,
		Origin:        rec.Origin,
	}
	if rec.Error != "" {
		res.Err = errors.New(rec.Error)
		return res
	}
	res.Metrics = &profile.Metrics{
		Accesses:       rec.Accesses,
		FootprintBytes: rec.FootprintBytes,
		EnergyNJ:       rec.EnergyNJ,
		Cycles:         rec.Cycles,
		Failures:       rec.Failures,
	}
	return res
}

// Runner drives an exploration: one trace, one hierarchy, many
// configurations, profiled in parallel.
type Runner struct {
	Hierarchy *memhier.Hierarchy
	Trace     *trace.Trace

	// Compiled, when non-nil, is replayed instead of Trace, skipping the
	// per-exploration compile. Callers exploring many spaces against one
	// trace should trace.Compile once and set this.
	Compiled *trace.Compiled

	// Workers caps the number of concurrent simulations; 0 means
	// GOMAXPROCS.
	Workers int

	// Progress, when non-nil, is called after each configuration
	// completes with (done, total). Calls may arrive from multiple
	// goroutines; implementations must be safe for concurrent use.
	Progress func(done, total int)

	// Observer, when non-nil, is called with every completed Result —
	// the journaling hook. Calls arrive from multiple goroutines;
	// implementations must be safe for concurrent use.
	Observer func(Result)

	// Telemetry, when non-nil, receives per-worker runtime metrics
	// (simulation latency, events/sec, cache hits, errors, utilization).
	// Its pipeline counters are the stage aggregates of its recorder's
	// rings (Collector.Spans), into which session workers record each
	// stage once. Search strategies issuing several run phases
	// accumulate into the same collector.
	Telemetry *telemetry.Collector

	// Spans, when non-nil, is the run's flight recorder: sessions make it
	// the collector's recorder (Collector.Use), so every pipeline stage
	// (simulations, partition builds, compositions, cache probes, batch
	// waves) also keeps its raw spans, exportable as a Chrome trace.
	// Recording is allocation-free and purely observational — results
	// are bit-identical with or without it.
	Spans *span.Recorder

	// Store, when non-nil, persists configurations' metrics across runs
	// and tool invocations (see Store). Sessions consult it before
	// evaluating a configuration and record every result they compute; a
	// hit skips the evaluation entirely (Result.CacheHit). The
	// incremental tier's partitions and pool runs live only as long as
	// the session.
	Store *Store

	// Incremental enables partition-based partial re-evaluation:
	// configurations sharing a fixed-pool signature (same Fixed pools and
	// general-pool layer — e.g. Hamming-1 neighbours along any
	// general-pool axis) replay the full trace once per signature and
	// re-simulate only the ops that reached the general pool thereafter.
	// Results are bit-identical to full replays; runs the partial path
	// cannot reproduce exactly fall back to a full replay automatically.
	//
	// On top of the per-signature partitions, sessions memoize the
	// standalone general-pool runs by (recorded-op content hash,
	// general-pool parameters): a candidate whose fixed-pool signature
	// records an op sequence already replayed under the same general
	// vector — reclaim-axis neighbours, NSGA-II crossover offspring
	// recombining two seen half-vectors — is served by an O(ops)
	// composition with no simulation at all (Result.Composed).
	// The partition cache and the pool-run memo are size-aware LRUs
	// bounded by DefaultPartitionBudgetBytes and
	// DefaultPoolMemoBudgetBytes; evicted entries rebuild on next use and
	// results are unaffected.
	Incremental bool

	// EvalLatency, when positive, adds a sleep after every executed
	// simulation. The paper's workflow profiles configurations on real
	// embedded platforms where one evaluation costs seconds to minutes;
	// our in-process replay takes microseconds. The latency model lets
	// benchmarks (scripts/benchsearch.go) and tests exercise the batched
	// evaluation pipeline under backend-bound conditions — where
	// saturating the worker pool, not raw simulation speed, decides
	// wall-clock time. Cache and memo hits skip it, exactly as they skip
	// the backend. Incremental partial evaluations charge it pro-rata to
	// the replayed fraction of the trace: the modelled backend re-runs
	// only the partition's recorded ops, not the whole trace. Composed
	// evaluations (pool-run memo hits) charge only their own composition
	// cost — nothing re-runs on the backend at all.
	//
	// Charges accrue per worker and sleep in EvalLatency quanta (one
	// modelled round-trip): sleeping each sub-millisecond pro-rata slice
	// individually would add the runtime's timer overshoot per call,
	// silently inflating the model. Total slept time equals total charged
	// time; residual debt is flushed when the session drains.
	EvalLatency time.Duration
}

// Explore profiles every configuration of the space exhaustively and
// returns results indexed identically to the space (result i is
// configuration i).
func (r *Runner) Explore(space *Space) ([]Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	return r.run(space, SweepIndices(space.Size(), 0, 0))
}

// Sample profiles n distinct configurations drawn uniformly from the
// space (all of them when n >= space.Size()).
func (r *Runner) Sample(space *Space, n int, seed uint64) ([]Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: sample size %d", n)
	}
	return r.run(space, SweepIndices(space.Size(), n, seed))
}

// SweepIndices returns the configuration indices a sweep of n samples
// from a space of size configurations evaluates, in order: every index
// in order when n <= 0 or n >= size (exhaustive), else the first n of
// seed's permutation. Explore, Sample and the service's range shards
// all walk this order.
func SweepIndices(size, n int, seed uint64) []int {
	if n > 0 && n < size {
		return stats.NewRNG(seed).Perm(size)[:n]
	}
	indices := make([]int, size)
	for i := range indices {
		indices[i] = i
	}
	return indices
}

// run profiles the given indices in one wave: a throwaway session, one
// batch, workers clamped to the batch size. Guided searches that issue
// many waves open a persistent session instead (see EvalSession).
func (r *Runner) run(space *Space, indices []int) ([]Result, error) {
	s, err := r.newSession(space, len(indices))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Eval(indices, SweepOrigins(len(indices)))
}

// SweepOrigins returns n origins for a sweep's results. Sweeps have no
// ancestry, but stamping a uniform origin keeps the journal's
// provenance surface total: dmreport -lineage works on exhaustive runs
// too. All n point to one Origin, which no reader modifies.
func SweepOrigins(n int) []*telemetry.Origin {
	o := &telemetry.Origin{Strategy: "sweep", Op: "sweep", Wave: 1}
	origins := make([]*telemetry.Origin, n)
	for i := range origins {
		origins[i] = o
	}
	return origins
}
