// Package telemetry instruments the exploration engine: per-worker
// sharded counters and latency histograms merged on snapshot, an
// append-only JSONL run journal, a throttled terminal progress reporter
// with ETA, and an optional expvar/pprof HTTP endpoint for long sweeps.
//
// The recording side is built for the replay hot path: a worker owns one
// Shard, every record is a handful of uncontended atomic adds into
// padded, pre-sized arrays — no locks, no maps, no allocation — so the
// AllocsPerRun guard on the steady-state replay loop keeps reporting
// zero even with telemetry enabled. Readers (the progress line, expvar,
// the final run summary) merge all shards into a Snapshot at whatever
// rate they like without perturbing the workers.
package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dmexplore/internal/stats"
)

// Shard accumulates one worker's telemetry. All fields are atomics so
// concurrent snapshots are race-free, but each shard is written by a
// single worker, so the adds never contend. The struct is padded to keep
// adjacent shards out of each other's cache lines.
type Shard struct {
	sims     atomic.Uint64 // simulations actually executed
	simNanos atomic.Int64  // total wall time inside those simulations
	events   atomic.Uint64 // trace events replayed by those simulations

	partialSims     atomic.Uint64 // sims served by the incremental partial path
	eventsSkipped   atomic.Uint64 // trace events partial sims avoided replaying
	partitionBuilds atomic.Uint64 // invariant-partition replays (one per signature)
	composedEvals   atomic.Uint64 // evaluations composed from the pool-run memo (no sim)

	cacheHits   atomic.Uint64 // configurations served from the results cache
	cacheMisses atomic.Uint64 // cache consulted, configuration not present
	memoHits    atomic.Uint64 // served from the in-run duplicate memo

	errConfig atomic.Uint64 // errors materializing a configuration
	errSim    atomic.Uint64 // errors building or replaying a configuration

	busyNanos atomic.Int64 // wall time spent working on configurations

	latency [stats.NumLog2Buckets]atomic.Uint64 // simulation latency, ns, log2 buckets

	_ [64]byte // keep the next shard off this one's cache lines
}

// ObserveSim records one executed simulation: its wall time and the
// number of trace events it replayed.
func (s *Shard) ObserveSim(d time.Duration, events int) {
	ns := d.Nanoseconds()
	s.sims.Add(1)
	s.simNanos.Add(ns)
	s.events.Add(uint64(events))
	s.latency[stats.Log2Bucket(ns)].Add(1)
}

// ObservePartialSim records one simulation served by the incremental
// partial-replay path: its wall time, the fallback ops it replayed and
// the trace events it skipped relative to a full replay. Partial sims
// count toward Sims (they complete a configuration) and are broken out
// in PartialSims.
func (s *Shard) ObservePartialSim(d time.Duration, replayed, skipped int) {
	ns := d.Nanoseconds()
	s.sims.Add(1)
	s.partialSims.Add(1)
	s.simNanos.Add(ns)
	s.events.Add(uint64(replayed))
	s.eventsSkipped.Add(uint64(skipped))
	s.latency[stats.Log2Bucket(ns)].Add(1)
}

// ObservePartitionBuild records one invariant-partition replay (the
// once-per-signature full-trace pass the incremental path amortizes).
// It is not a configuration completion, so it does not count as a sim,
// but its wall time and events feed the throughput accounting.
func (s *Shard) ObservePartitionBuild(d time.Duration, events int) {
	ns := d.Nanoseconds()
	s.partitionBuilds.Add(1)
	s.simNanos.Add(ns)
	s.events.Add(uint64(events))
	s.latency[stats.Log2Bucket(ns)].Add(1)
}

// ObserveCompose records one evaluation served by composing a memoized
// standalone general-pool run with its partition — a pool-run memo hit.
// No simulation executed, so it does not count as a sim; skipped is the
// full trace event count the composition avoided replaying.
func (s *Shard) ObserveCompose(d time.Duration, skipped int) {
	_ = d // composition is sub-histogram-resolution; busy time captures it
	s.composedEvals.Add(1)
	s.eventsSkipped.Add(uint64(skipped))
}

// CacheHit records a configuration served from the results cache.
func (s *Shard) CacheHit() { s.cacheHits.Add(1) }

// CacheMiss records a results-cache lookup that found nothing.
func (s *Shard) CacheMiss() { s.cacheMisses.Add(1) }

// MemoHit records a configuration served from the in-run duplicate memo.
func (s *Shard) MemoHit() { s.memoHits.Add(1) }

// ConfigError records a failure to materialize a configuration.
func (s *Shard) ConfigError() { s.errConfig.Add(1) }

// SimError records a failure while building or replaying a configuration.
func (s *Shard) SimError() { s.errSim.Add(1) }

// AddBusy records wall time a worker spent processing configurations
// (simulated or cache-served); utilization = busy / (workers × elapsed).
func (s *Shard) AddBusy(d time.Duration) { s.busyNanos.Add(d.Nanoseconds()) }

// Collector owns the shards of one run. Hand each worker its own shard;
// snapshot from anywhere.
type Collector struct {
	start      time.Time
	shards     []Shard
	cacheStale atomic.Uint64 // stale results-cache entries, set by the cache owner
}

// NewCollector returns a collector with one shard per worker and the
// run's wall clock started. workers <= 0 allocates a single shard.
func NewCollector(workers int) *Collector {
	if workers <= 0 {
		workers = 1
	}
	return &Collector{start: time.Now(), shards: make([]Shard, workers)}
}

// Shard returns worker i's shard (wrapping when more workers than shards
// show up, which degrades to sharing, never to a crash).
func (c *Collector) Shard(i int) *Shard {
	if i < 0 {
		i = -i
	}
	return &c.shards[i%len(c.shards)]
}

// Workers returns the shard count.
func (c *Collector) Workers() int { return len(c.shards) }

// AddCacheStale records stale results-cache entries (version-mismatched
// at load, or superseded by a recomputed result).
func (c *Collector) AddCacheStale(n uint64) { c.cacheStale.Add(n) }

// Snapshot is a merged, self-consistent-enough view of all shards at one
// instant (counters are read individually; a snapshot taken mid-run can
// be off by the records in flight, which is fine for progress and
// expvar, and exact once the run has completed).
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
	// power of two) merged from the per-shard histograms.
	SimP50Ms float64 `json:"sim_p50_ms"`
	SimP90Ms float64 `json:"sim_p90_ms"`
	SimP99Ms float64 `json:"sim_p99_ms"`

	// LatencyBuckets are the merged log2 histogram counts (bucket i as in
	// stats.Log2Bucket over nanoseconds), for offline analysis.
	LatencyBuckets []uint64 `json:"latency_buckets,omitempty"`
}

// Snapshot merges every shard.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Workers:    len(c.shards),
		CacheStale: c.cacheStale.Load(),
	}
	elapsed := time.Since(c.start)
	s.ElapsedSec = elapsed.Seconds()
	var simNanos, busyNanos int64
	buckets := make([]uint64, stats.NumLog2Buckets)
	for i := range c.shards {
		sh := &c.shards[i]
		s.Sims += sh.sims.Load()
		simNanos += sh.simNanos.Load()
		s.Events += sh.events.Load()
		s.PartialSims += sh.partialSims.Load()
		s.EventsSkipped += sh.eventsSkipped.Load()
		s.PartitionBuilds += sh.partitionBuilds.Load()
		s.ComposedEvals += sh.composedEvals.Load()
		s.CacheHits += sh.cacheHits.Load()
		s.CacheMisses += sh.cacheMisses.Load()
		s.MemoHits += sh.memoHits.Load()
		s.ErrorsConfig += sh.errConfig.Load()
		s.ErrorsSim += sh.errSim.Load()
		busyNanos += sh.busyNanos.Load()
		for b := range sh.latency {
			buckets[b] += sh.latency[b].Load()
		}
	}
	s.SimSecTotal = float64(simNanos) / 1e9
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
