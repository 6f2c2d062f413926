// Package telemetry instruments the exploration engine: per-worker
// counters merged on snapshot, an append-only JSONL run journal, a
// throttled terminal progress reporter with ETA, and an optional
// expvar/pprof HTTP endpoint for long sweeps.
//
// Pipeline work is counted once, in the per-stage aggregates of a span
// recorder's per-worker rings; per-worker Shards hold what no stage
// counts. Both take uncontended atomic adds into padded, pre-sized
// arrays — no locks, no maps, no allocation — so the AllocsPerRun guard
// on the steady-state replay loop keeps reporting zero with telemetry
// enabled. Readers (the progress line, expvar, the final run summary)
// merge everything into a Snapshot at whatever rate they like.
package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dmexplore/internal/stats"
	"dmexplore/internal/telemetry/span"
)

// Shard accumulates what one worker does that no span stage counts. All
// fields are atomics so concurrent snapshots are race-free, but each
// shard is written by a single worker, so the adds never contend. The
// struct is padded to keep adjacent shards out of each other's cache
// lines.
type Shard struct {
	memoHits      atomic.Uint64 // served from the in-run duplicate memo
	eventsSkipped atomic.Uint64 // trace events partial sims and compositions avoided replaying

	errConfig atomic.Uint64 // errors materializing a configuration
	errSim    atomic.Uint64 // errors building or replaying a configuration

	busyNanos atomic.Int64 // wall time spent working on configurations

	_ [64]byte // keep the next shard off this one's cache lines
}

// MemoHit records a configuration served from the in-run duplicate memo.
func (s *Shard) MemoHit() { s.memoHits.Add(1) }

// AddSkipped records trace events an evaluation avoided replaying.
func (s *Shard) AddSkipped(events uint64) { s.eventsSkipped.Add(events) }

// ConfigError records a failure to materialize a configuration.
func (s *Shard) ConfigError() { s.errConfig.Add(1) }

// SimError records a failure while building or replaying a configuration.
func (s *Shard) SimError() { s.errSim.Add(1) }

// AddBusy records wall time a worker spent processing configurations
// (simulated or cache-served); utilization = busy / (workers × elapsed).
func (s *Shard) AddBusy(d time.Duration) { s.busyNanos.Add(d.Nanoseconds()) }

// Collector owns the shards of one run and the span recorder whose stage
// aggregates count its pipeline work. Hand each worker its own shard and
// ring; snapshot from anywhere.
type Collector struct {
	start      time.Time
	shards     []Shard
	spans      atomic.Pointer[span.Recorder]
	cacheStale atomic.Uint64 // stale results-cache entries, set by the cache owner
}

// NewCollector returns a collector with one shard per worker, an
// aggregates-only span recorder with one ring per worker, and the run's
// wall clock started. workers <= 0 allocates a single shard.
func NewCollector(workers int) *Collector {
	if workers <= 0 {
		workers = 1
	}
	c := &Collector{start: time.Now(), shards: make([]Shard, workers)}
	c.spans.Store(span.NewRecorder(workers, 0))
	return c
}

// Use makes rec, a flight recorder that also keeps raw spans, the
// source of the collector's stage counts. Counts already recorded into
// the previous source are not carried over.
func (c *Collector) Use(rec *span.Recorder) { c.spans.Store(rec) }

// Spans returns the recorder the collector's stage counts come from.
// Worker i records into Spans().Ring(i).
func (c *Collector) Spans() *span.Recorder { return c.spans.Load() }

// Shard returns worker i's shard (wrapping when more workers than shards
// show up, which degrades to sharing, never to a crash).
func (c *Collector) Shard(i int) *Shard {
	if i < 0 {
		i = -i
	}
	return &c.shards[i%len(c.shards)]
}

// AddCacheStale records stale results-cache entries (version-mismatched
// at load, or superseded by a recomputed result).
func (c *Collector) AddCacheStale(n uint64) { c.cacheStale.Add(n) }

// Snapshot is a merged, self-consistent-enough view of all shards and
// stage aggregates at one instant (counters are read individually; a
// snapshot taken mid-run can be off by the records in flight, which is
// fine for progress and expvar, and exact once the run has completed).
type Snapshot struct {
	Workers    int     `json:"workers"`
	ElapsedSec float64 `json:"elapsed_sec"`

	Sims         uint64  `json:"sims"`
	SimSecTotal  float64 `json:"sim_sec_total"`
	Events       uint64  `json:"events_replayed"`
	EventsPerSec float64 `json:"events_per_sec"`

	// Incremental-evaluation breakdown: PartialSims of Sims were served
	// by the partial-replay path, skipping EventsSkipped trace events;
	// PartitionBuilds is the number of once-per-signature invariant
	// replays paid to enable them. ComposedEvals are evaluations served
	// by the pool-run memo — pure composition, no simulation — and are
	// counted in Done() but not in Sims.
	PartialSims     uint64 `json:"partial_sims,omitempty"`
	EventsSkipped   uint64 `json:"events_skipped,omitempty"`
	PartitionBuilds uint64 `json:"partition_builds,omitempty"`
	ComposedEvals   uint64 `json:"composed_evals,omitempty"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	CacheStale  uint64 `json:"cache_stale"`
	MemoHits    uint64 `json:"memo_hits"`

	ErrorsConfig uint64 `json:"errors_config"`
	ErrorsSim    uint64 `json:"errors_sim"`

	// Utilization is busy worker time over available worker time, 0..1.
	Utilization float64 `json:"worker_utilization"`

	// Simulation latency quantiles (upper bounds, exact to within one
	// power of two) merged from the stage histograms.
	SimP50Ms float64 `json:"sim_p50_ms"`
	SimP90Ms float64 `json:"sim_p90_ms"`
	SimP99Ms float64 `json:"sim_p99_ms"`

	// LatencyBuckets are the merged log2 histogram counts (bucket i as in
	// stats.Log2Bucket over nanoseconds), for offline analysis.
	LatencyBuckets []uint64 `json:"latency_buckets,omitempty"`
}

// Snapshot merges every shard and the recorder's stage rows. The
// simulation counters, time, events and latency histogram cover full
// sims, partial sims and partition builds; a cache probe's arg is 1 for
// a hit.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Workers:    len(c.shards),
		CacheStale: c.cacheStale.Load(),
	}
	elapsed := time.Since(c.start)
	s.ElapsedSec = elapsed.Seconds()
	var busyNanos int64
	for i := range c.shards {
		sh := &c.shards[i]
		s.EventsSkipped += sh.eventsSkipped.Load()
		s.MemoHits += sh.memoHits.Load()
		s.ErrorsConfig += sh.errConfig.Load()
		s.ErrorsSim += sh.errSim.Load()
		busyNanos += sh.busyNanos.Load()
	}
	buckets := make([]uint64, stats.NumLog2Buckets)
	for _, st := range c.Spans().Snapshot() {
		switch st.Stage {
		case span.StageFullSim:
			s.Sims += st.Count
		case span.StagePartialSim:
			s.Sims += st.Count
			s.PartialSims = st.Count
		case span.StagePartitionBuild:
			s.PartitionBuilds = st.Count
		case span.StageCompose:
			s.ComposedEvals = st.Count
			continue
		case span.StageCacheProbe:
			s.CacheHits = uint64(st.Arg)
			s.CacheMisses = st.Count - s.CacheHits
			continue
		default:
			continue
		}
		s.SimSecTotal += st.Seconds
		s.Events += uint64(st.Arg)
		for b, n := range st.Buckets {
			buckets[b] += n
		}
	}
	if s.ElapsedSec > 0 {
		s.EventsPerSec = float64(s.Events) / s.ElapsedSec
		s.Utilization = float64(busyNanos) / 1e9 / (s.ElapsedSec * float64(len(c.shards)))
	}
	s.SimP50Ms = float64(stats.Log2Quantile(buckets, 0.50)) / 1e6
	s.SimP90Ms = float64(stats.Log2Quantile(buckets, 0.90)) / 1e6
	s.SimP99Ms = float64(stats.Log2Quantile(buckets, 0.99)) / 1e6
	s.LatencyBuckets = buckets
	return s
}

// Done returns the configurations accounted for so far: executed
// simulations plus cache-, memo- and composition-served ones.
func (s Snapshot) Done() uint64 {
	return s.Sims + s.CacheHits + s.MemoHits + s.ComposedEvals
}

// PartialSimRate returns the fraction of executed simulations served by
// the incremental partial-replay path (0 when nothing ran).
func (s Snapshot) PartialSimRate() float64 {
	if s.Sims == 0 {
		return 0
	}
	return float64(s.PartialSims) / float64(s.Sims)
}

// CacheHitRate returns hits / lookups (0 when the cache was never
// consulted).
func (s Snapshot) CacheHitRate() float64 {
	lookups := s.CacheHits + s.CacheMisses
	if lookups == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(lookups)
}

// String renders the one-line human summary the tools print after a run.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d sims in %.2fs", s.Sims, s.ElapsedSec)
	if s.EventsPerSec > 0 {
		fmt.Fprintf(&b, ", %.3g events/s", s.EventsPerSec)
	}
	if s.CacheHits+s.CacheMisses > 0 {
		fmt.Fprintf(&b, ", cache %.0f%% hit", 100*s.CacheHitRate())
	}
	if s.MemoHits > 0 {
		fmt.Fprintf(&b, ", %d memo hits", s.MemoHits)
	}
	if s.PartialSims > 0 || s.ComposedEvals > 0 {
		fmt.Fprintf(&b, ", %.0f%% partial sims (%d partitions, %.3g events skipped)",
			100*s.PartialSimRate(), s.PartitionBuilds, float64(s.EventsSkipped))
	}
	if s.ComposedEvals > 0 {
		fmt.Fprintf(&b, ", %d composed (memo)", s.ComposedEvals)
	}
	fmt.Fprintf(&b, ", sim p50/p99 %.3g/%.3gms", s.SimP50Ms, s.SimP99Ms)
	fmt.Fprintf(&b, ", workers %.0f%% busy", 100*s.Utilization)
	if n := s.ErrorsConfig + s.ErrorsSim; n > 0 {
		fmt.Fprintf(&b, ", %d errors", n)
	}
	return b.String()
}
