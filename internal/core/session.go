package core

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmexplore/internal/alloc"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
)

// EvalSession is a persistent evaluation pipeline over one (space, trace,
// hierarchy) triple: the trace is compiled once, a pool of long-lived
// workers is spawned once, and every worker holds one Replayer for the
// session's life — taken warm from profile's process-wide pool, so its
// scratch tables keep the sizes an earlier session gave them, and given
// back on Close for the next session.
// Batches of configuration indices are fed to the pool over a channel, so
// a guided search issuing hundreds of small evaluation waves (one per
// NSGA-II generation, one per hill-climb neighbourhood, one per annealing
// speculation window) pays the pool spin-up cost exactly once instead of
// once per wave.
//
// Eval is safe for concurrent use; results come back in request order, so
// callers see a deterministic reduction order regardless of Workers.
type EvalSession struct {
	r       *Runner
	space   *Space
	ct      *trace.Compiled
	col     *telemetry.Collector
	workers int

	// hierarchy and traceID are computed once per session for storeKey:
	// the hierarchy's Fingerprint and the trace's name and length.
	hierarchy string
	traceID   string

	jobs chan evalJob
	wg   sync.WaitGroup

	// Axis combinations can collapse to the same canonical configuration
	// (an axis that is inapplicable under another axis's value). The memo
	// spans the whole session, so duplicates cost one simulation across
	// every batch of a search, not just within one. It is keyed by
	// Config.ID: workers look up with their scratch ID bytes, and the key
	// string is allocated once per distinct configuration, on insert.
	memoMu sync.Mutex
	memo   map[string]*profile.Metrics

	// incremental gates the partial-replay path: Runner.Incremental set
	// and fast-path profiling options (the partial path's exactness
	// argument holds only for the flat cost model).
	incremental bool

	// parts caches the invariant partition per fixed-pool signature; the
	// entry's once makes concurrent workers build it exactly once. The
	// cache is a size-aware LRU bounded by Runner.PartitionBudgetBytes so
	// long NSGA-II runs over signature-rich spaces cannot grow it without
	// limit; an evicted signature simply rebuilds on next use.
	partsMu sync.Mutex
	parts   *lruCache[*partitionEntry]

	// runs memoizes standalone general-pool replays by poolRunKey
	// (recorded-op content hash, general-pool parameters). A hit
	// composes cached per-gap reserve levels and metric components with
	// the candidate's partition in O(ops) additions — no simulation.
	// Bounded like parts, by Runner.PoolMemoBudgetBytes.
	runsMu sync.Mutex
	runs   *lruCache[*poolRunEntry]

	// total/done drive the Progress callback: total grows as batches are
	// submitted, done as configurations complete.
	total atomic.Int64
	done  atomic.Int64

	closed atomic.Bool
}

// partitionEntry is one signature's cached partition build.
type partitionEntry struct {
	once sync.Once
	part *profile.Partition
	err  error
}

// poolRunEntry is one (ops hash, general vector) key's cached standalone
// general-pool replay. ok is false when the replay declined (a pool
// error only a full replay may surface) — cached so the key is not
// retried.
type poolRunEntry struct {
	once sync.Once
	run  *profile.PoolRun
	ok   bool
}

// memoSizeHint caps the memo's initial size: a session over a space of
// at most this many configurations never grows its memo.
const memoSizeHint = 1024

// Default byte budgets for the session's incremental caches. At typical
// trace scales (10^5–10^6 recorded ops, ~16 bytes per op across the
// partition's slices) the defaults hold hundreds of partitions and
// thousands of pool runs — far past what a guided search touches — while
// keeping a week-long NSGA-II service run bounded.
const (
	DefaultPartitionBudgetBytes = 256 << 20
	DefaultPoolMemoBudgetBytes  = 128 << 20
)

// cacheBudget resolves a Runner budget knob: 0 means the default,
// negative means unbounded (the lruCache convention for <= 0).
func cacheBudget(knob, def int64) int64 {
	if knob == 0 {
		return def
	}
	if knob < 0 {
		return 0
	}
	return knob
}

// IncrementalCacheStats reports the occupancy of the session's bounded
// incremental caches (partition cache and pool-run memo).
type IncrementalCacheStats struct {
	PartitionEntries   int
	PartitionBytes     int64
	PartitionEvictions uint64
	PoolRunEntries     int
	PoolRunBytes       int64
	PoolRunEvictions   uint64
}

// IncrementalCacheStats snapshots the bounded incremental caches. Zero
// for sessions running without the incremental path.
func (s *EvalSession) IncrementalCacheStats() IncrementalCacheStats {
	var st IncrementalCacheStats
	if !s.incremental {
		return st
	}
	s.partsMu.Lock()
	st.PartitionEntries = s.parts.len()
	st.PartitionBytes = s.parts.bytes()
	st.PartitionEvictions = s.parts.evicted()
	s.partsMu.Unlock()
	s.runsMu.Lock()
	st.PoolRunEntries = s.runs.len()
	st.PoolRunBytes = s.runs.bytes()
	st.PoolRunEvictions = s.runs.evicted()
	s.runsMu.Unlock()
	return st
}

// evalJob is one configuration handed to a session worker: where to write
// the result and which batch to signal when done. labels is the result's
// slot per axis for its option labels. predicted, when non-nil, is the
// surrogate's forecast for this configuration, stamped onto the result
// so the journal pairs it with the exact metrics; origin is its search
// provenance, stamped the same way.
type evalJob struct {
	idx       int
	out       *Result
	wg        *sync.WaitGroup
	labels    []string
	predicted map[string]float64
	origin    *telemetry.Origin
}

// evalScratch is one worker's reusable evaluation state: the
// configuration each evaluation is materialized into and the buffer its
// ID is built in. Nothing that outlives an evaluation may alias either:
// the configuration's Fixed array is rewritten by the next one.
type evalScratch struct {
	cfg alloc.Config
	id  []byte
}

// NewSession opens a persistent evaluation session for the space. Callers
// must Close it to release the worker pool.
func (r *Runner) NewSession(space *Space) (*EvalSession, error) {
	return r.newSession(space, 0)
}

// newSession opens a session; maxWorkers > 0 caps the pool (the one-shot
// run path clamps to the batch size so a 6-configuration sweep does not
// spawn idle goroutines).
func (r *Runner) newSession(space *Space, maxWorkers int) (*EvalSession, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if r.Hierarchy == nil || (r.Trace == nil && r.Compiled == nil) {
		return nil, fmt.Errorf("core: runner needs a hierarchy and a trace")
	}
	ct := r.Compiled
	if ct == nil {
		var err error
		ct, err = trace.Compile(r.Trace)
		if err != nil {
			return nil, err
		}
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxWorkers > 0 && workers > maxWorkers {
		workers = maxWorkers
	}
	col := r.Telemetry
	if col == nil {
		col = telemetry.NewCollector(workers)
	}
	s := &EvalSession{
		r:         r,
		space:     space,
		ct:        ct,
		col:       col,
		workers:   workers,
		hierarchy: r.Hierarchy.Fingerprint(),
		traceID:   fmt.Sprintf("%s(%d)", ct.Name, ct.Len()),
		jobs:      make(chan evalJob, 2*workers),
		memo:      make(map[string]*profile.Metrics, min(space.Size(), memoSizeHint)),
	}
	opts := r.Options
	s.incremental = r.Incremental && opts.LogWriter == nil &&
		opts.SampleEvery == 0 && len(opts.Caches) == 0 && len(opts.RowBuffers) == 0
	if s.incremental {
		s.parts = newLRUCache[*partitionEntry](
			cacheBudget(r.PartitionBudgetBytes, DefaultPartitionBudgetBytes))
		s.runs = newLRUCache[*poolRunEntry](
			cacheBudget(r.PoolMemoBudgetBytes, DefaultPoolMemoBudgetBytes))
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s, nil
}

// Workers returns the size of the session's worker pool.
func (s *EvalSession) Workers() int { return s.workers }

// Warm pre-fills the session memo with known-exact metrics, keyed by
// configuration index. The distributed service uses it to resume: a
// worker re-leasing a half-finished island loads the job's checkpointed
// results, then replays the island's deterministic walk — every
// already-evaluated configuration is served from the memo (bit-identical
// metrics, no simulation, no modelled backend latency), so the walk
// fast-forwards to where the dead worker stopped. First write wins, as
// with any memo fill; indices that fail to materialize are skipped (the
// live walk will surface the error itself if it reaches them).
func (s *EvalSession) Warm(results map[int]*profile.Metrics) {
	var sc evalScratch
	for idx, m := range results {
		if m == nil || s.space.configInto(idx, &sc.cfg, nil) != nil {
			continue
		}
		sc.id = sc.cfg.AppendID(sc.id[:0])
		s.memoMu.Lock()
		if s.memo[string(sc.id)] == nil {
			s.memo[string(sc.id)] = m
		}
		s.memoMu.Unlock()
	}
}

// Eval profiles the given configuration indices as one wave across the
// worker pool and returns results in request order (result i is
// configuration indices[i]), making the reduction order deterministic
// regardless of worker count. Duplicate indices within the wave are
// evaluated independently; use an evalBatcher for deduplication.
//
// preds and origins annotate the results and may each be nil; when set
// they hold one entry per index (entries may be nil). preds[i] is the
// surrogate's forecast for indices[i] and origins[i] its search
// provenance. Both are stamped onto the Result before the Observer sees
// it, so the journal pairs them with the exact metrics (`dmreport
// -lineage` reconstructs ancestry from the origins). The wave lands one
// batch-wave span on the coordinator ring.
//
// On failure every slot is still populated (per-result Err) and the
// returned error wraps the first failure in request order.
func (s *EvalSession) Eval(indices []int, preds []map[string]float64, origins []*telemetry.Origin) ([]Result, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("core: eval on closed session")
	}
	if len(indices) == 0 {
		return nil, nil
	}
	if preds != nil && len(preds) != len(indices) {
		return nil, fmt.Errorf("core: %d predictions for %d indices", len(preds), len(indices))
	}
	if origins != nil && len(origins) != len(indices) {
		return nil, fmt.Errorf("core: %d origins for %d indices", len(origins), len(indices))
	}
	coord := s.r.Spans.Coord()
	var waveStart time.Time
	if coord != nil {
		waveStart = time.Now()
	}
	results := make([]Result, len(indices))
	axes := len(s.space.Axes)
	labels := make([]string, len(indices)*axes)
	s.total.Add(int64(len(indices)))
	var batch sync.WaitGroup
	batch.Add(len(indices))
	for i, idx := range indices {
		job := evalJob{idx: idx, out: &results[i], wg: &batch,
			labels: labels[i*axes : (i+1)*axes : (i+1)*axes]}
		if preds != nil {
			job.predicted = preds[i]
		}
		if origins != nil {
			job.origin = origins[i]
		}
		s.jobs <- job
	}
	batch.Wait()
	coord.Since(span.StageBatchWave, waveStart, int64(len(indices)))
	for _, res := range results {
		if res.Err != nil {
			return results, fmt.Errorf("core: %w", res.Err)
		}
	}
	return results, nil
}

// Close shuts the worker pool down and waits for it to drain. A closed
// session rejects further Eval calls; Close is idempotent.
func (s *EvalSession) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.jobs)
	s.wg.Wait()
}

// worker is one long-lived pool member: a telemetry shard and a Replayer
// whose scratch tables persist across every batch of the session, and
// past it: the Replayer goes back to profile's pool when the worker
// exits.
func (s *EvalSession) worker(w int) {
	defer s.wg.Done()
	shard := s.col.Shard(w)
	rep := profile.GetReplayer()
	defer profile.PutReplayer(rep)
	rep.Shard = shard
	rep.Spans = s.r.Spans.Ring(w)
	var debt time.Duration
	var sc evalScratch
	for job := range s.jobs {
		res := s.evalOne(job.idx, job.labels, &sc, rep, shard, &debt)
		res.Predicted = job.predicted
		res.Origin = job.origin
		*job.out = res
		if s.r.Observer != nil {
			s.r.Observer(res)
		}
		if s.r.Progress != nil {
			s.r.Progress(int(s.done.Add(1)), int(s.total.Load()))
		}
		job.wg.Done()
	}
	if debt > 0 {
		// Flush the worker's residual modelled-backend time (at most one
		// round-trip) so total slept time equals total charged time.
		time.Sleep(debt)
	}
}

// chargeLatency accrues modelled backend time and sleeps once the debt
// reaches one backend round-trip (EvalLatency). Partial evaluations
// charge sub-millisecond pro-rata slices; sleeping each individually
// would overshoot by the runtime's timer granularity per call, silently
// inflating the modelled backend by tens of percent. Accumulating to one
// round-trip keeps the total slept time equal to the total charged time
// regardless of how finely the charges are sliced.
func (s *EvalSession) chargeLatency(debt *time.Duration, d time.Duration) {
	*debt += d
	if *debt >= s.r.EvalLatency {
		time.Sleep(*debt)
		*debt = 0
	}
}

// evalOne profiles one configuration: materialize into the worker's
// scratch, memo lookup, store lookup, then partial replay or
// composition, else a full replay. labels receives the option labels.
func (s *EvalSession) evalOne(idx int, labels []string, sc *evalScratch, rep *profile.Replayer, shard *telemetry.Shard, debt *time.Duration) Result {
	r := s.r
	start := time.Now()
	res := Result{Index: idx}
	cfg := &sc.cfg
	if err := s.space.configInto(idx, cfg, labels); err != nil {
		res.Err = fmt.Errorf("configuration %d: %w", idx, err)
		shard.ConfigError()
	} else {
		res.Labels = labels
		sc.id = cfg.AppendID(sc.id[:0])
		s.memoMu.Lock()
		memoized := s.memo[string(sc.id)]
		s.memoMu.Unlock()
		if memoized != nil {
			res.Metrics = relabel(memoized, cfg.Label)
			res.MemoHit = true
			shard.MemoHit()
		}
		key := ""
		if res.Metrics == nil && r.Store != nil {
			var probeStart time.Time
			if rep.Spans != nil {
				probeStart = time.Now()
			}
			key = storeKey(kindMetrics, s.hierarchy, s.traceID+"\x1f"+string(sc.id))
			hit := int64(0)
			if m, ok := r.Store.Metrics(key); ok {
				res.Metrics = relabel(m, cfg.Label)
				res.CacheHit = true
				hit = 1
				shard.CacheHit()
			} else {
				shard.CacheMiss()
			}
			if rep.Spans != nil {
				rep.Spans.Since(span.StageCacheProbe, probeStart, hit)
			}
		}
		if res.Metrics == nil && s.incremental {
			// Partial re-evaluation: configurations sharing a fixed-pool
			// signature reuse one invariant partition; the standalone
			// general-pool run is memoized by recorded-op content, so a
			// candidate whose sequence was already replayed under the same
			// general vector composes in O(ops) with no simulation. A
			// declined partial (capacity interaction, pool failure the
			// failure-replay path cannot reproduce) falls through to the
			// full replay below.
			if part := s.partition(*cfg, rep); part != nil {
				pstart := time.Now()
				if run, built := s.poolRun(part, *cfg, rep); run != nil {
					if m, ok := rep.Compose(s.ct, part, run, *cfg, r.Hierarchy); ok {
						res.Metrics = m
						res.Incremental = true
						if built {
							res.EventsSkipped = uint64(part.SkippedEvents())
							shard.ObservePartialSim(time.Since(pstart), part.Ops(), part.SkippedEvents())
							rep.Spans.Since(span.StagePartialSim, pstart, int64(part.Ops()))
							if r.EvalLatency > 0 {
								// The modelled backend replays only the partition's
								// recorded ops, so it charges latency pro-rata to the
								// replayed fraction of the trace.
								s.chargeLatency(debt, time.Duration(float64(r.EvalLatency)*
									float64(part.Ops())/float64(part.Events())))
							}
						} else {
							// Memo hit: the evaluation is a pure composition.
							// It charges its own (microsecond) cost and no
							// modelled backend latency — nothing re-ran.
							res.Composed = true
							res.EventsSkipped = uint64(part.Events())
							shard.ObserveCompose(time.Since(pstart), part.Events())
							rep.Spans.Since(span.StageCompose, pstart, int64(part.Ops()))
						}
						if r.Store != nil {
							r.Store.PutMetrics(key, res.Metrics)
						}
					}
				}
			}
		}
		if res.Metrics == nil {
			res.Metrics, res.Err = rep.Run(s.ct, *cfg, r.Hierarchy, r.Options)
			if res.Err != nil {
				// Surface which configuration died, not just how: index
				// and axis labels identify it in the space without a
				// replay.
				res.Err = fmt.Errorf("configuration %d [%s]: %w",
					idx, strings.Join(labels, " "), res.Err)
				shard.SimError()
			} else {
				if r.EvalLatency > 0 {
					// Model an external evaluation backend (see the
					// EvalLatency doc comment).
					s.chargeLatency(debt, r.EvalLatency)
				}
				if r.Store != nil {
					r.Store.PutMetrics(key, res.Metrics)
				}
			}
		}
		if res.Err == nil && memoized == nil {
			s.memoMu.Lock()
			s.memo[string(sc.id)] = res.Metrics
			s.memoMu.Unlock()
		}
	}
	res.Duration = time.Since(start)
	shard.AddBusy(res.Duration)
	return res
}

// relabel returns m as the result of the configuration labelled label.
// A memo or Store hit serves metrics that another configuration with
// the same ID produced; its copy carries the requesting label, so every
// result names its own configuration.
func relabel(m *profile.Metrics, label string) *profile.Metrics {
	if m.ConfigLabel == label {
		return m
	}
	c := *m
	c.ConfigLabel = label
	return &c
}

// partition returns the invariant partition for cfg's fixed-pool
// signature, building it on first use — one full-trace replay per
// signature, shared by every worker for the rest of the session. A nil
// return means the partition could not be built (a fault the full
// replay path will surface per configuration).
func (s *EvalSession) partition(cfg alloc.Config, rep *profile.Replayer) *profile.Partition {
	sig := partitionKey(cfg)
	s.partsMu.Lock()
	e, ok := s.parts.get(sig)
	if !ok {
		e = &partitionEntry{}
		s.parts.put(sig, e, partitionEntryBytes)
	}
	s.partsMu.Unlock()
	e.once.Do(func() {
		e.part, e.err = rep.Partition(s.ct, cfg, s.r.Hierarchy)
		if e.part != nil {
			// Account the built partition's real size; the budget may
			// evict colder signatures (never this one — it is in use).
			s.partsMu.Lock()
			s.parts.resize(sig, partitionEntryBytes+e.part.MemBytes())
			s.partsMu.Unlock()
		}
	})
	if e.err != nil {
		return nil
	}
	return e.part
}

// Baseline byte costs of a cache entry before (or beyond) its payload:
// map slot, recency-list node, entry struct.
const (
	partitionEntryBytes = 128
	poolRunEntryBytes   = 128
)

// poolRun returns the memoized standalone general-pool run for part's
// recorded op sequence under cfg's general-pool parameters, building it
// on first use; concurrent workers claiming the same key build exactly
// once. built reports whether this call executed the standalone replay
// (false: served by the memo — the caller's composition is the whole
// evaluation). A nil run means the replay declined and only a full
// replay can evaluate the configuration.
func (s *EvalSession) poolRun(part *profile.Partition, cfg alloc.Config, rep *profile.Replayer) (run *profile.PoolRun, built bool) {
	key := poolRunKey(s.hierarchy, part.OpsHash(), part.Ops(), cfg.General)
	s.runsMu.Lock()
	e, ok := s.runs.get(key)
	if !ok {
		e = &poolRunEntry{}
		s.runs.put(key, e, poolRunEntryBytes)
	}
	s.runsMu.Unlock()
	e.once.Do(func() {
		if store := s.r.Store; store != nil {
			// Store probe: a run recorded by a previous tool invocation
			// under the same key serves this session like an in-session
			// hit (the caller's composition is the whole evaluation).
			// MatchesOps guards the hash key exactly as it does for
			// in-session reuse; a collision falls through to a fresh
			// replay.
			if run, ok := store.PoolRun(key); ok && run.MatchesOps(part) {
				e.run, e.ok = run, true
				s.runsMu.Lock()
				s.runs.resize(key, poolRunEntryBytes+run.MemBytes())
				s.runsMu.Unlock()
				return
			}
		}
		built = true
		e.run, e.ok = rep.PoolReplay(part, cfg, s.r.Hierarchy)
		if e.ok {
			s.runsMu.Lock()
			s.runs.resize(key, poolRunEntryBytes+e.run.MemBytes())
			s.runsMu.Unlock()
			if store := s.r.Store; store != nil {
				store.PutPoolRun(key, e.run)
			}
		}
	})
	if !e.ok {
		return nil, built
	}
	if !built && !e.run.MatchesOps(part) {
		// Content-hash collision: the cached run replayed a different op
		// sequence. Compute privately rather than trust or replace it.
		if r2, ok2 := rep.PoolReplay(part, cfg, s.r.Hierarchy); ok2 {
			return r2, true
		}
		return nil, true
	}
	return e.run, built
}

// poolRunKey keys the pool-run memo and the Store's pool runs: the
// hierarchy fingerprint (layer capacities decide where a standalone
// replay fails, its costs what it charges), the recorded op sequence's
// content hash and length, and the canonical general-pool parameter
// vector. Everything a standalone replay depends on is in the key; the
// sequence itself is verified on reuse (PoolRun.MatchesOps) so a hash
// collision degrades to a private rebuild, never a wrong composition.
// The key is persisted: its bytes are storeKey's over
// "%016x·%d·<general ID>", built by appending.
func poolRunKey(hierarchy string, opsHash uint64, ops int, g alloc.GeneralConfig) string {
	var buf [keyBufLen]byte
	b := append(buf[:0], kindPoolRun...)
	b = append(b, '\x1f')
	b = append(b, hierarchy...)
	b = append(b, '\x1f')
	var hex [16]byte
	h := strconv.AppendUint(hex[:0], opsHash, 16)
	for range len(hex) - len(h) {
		b = append(b, '0')
	}
	b = append(b, h...)
	b = append(b, "·"...)
	b = strconv.AppendInt(b, int64(ops), 10)
	b = append(b, "·"...)
	return string(g.AppendID(b))
}

// partitionKey canonicalizes the fixed-pool signature: the fixed pools
// (which fully determine request routing and the fixed-side simulation)
// plus the general pool's layer (which determines where fallback ops
// land). Configurations sharing a key share one Partition. The key is
// FixedID's bytes, then "G@" and the layer, as in ID; it never leaves
// the session.
func partitionKey(cfg alloc.Config) string {
	var buf [keyBufLen]byte
	b := append(cfg.AppendFixedID(buf[:0]), "G@"...)
	return string(append(b, cfg.General.Layer...))
}

// keyBufLen is the stack buffer the session's cache keys are built in;
// the string is then their only allocation, unless a key is longer.
const keyBufLen = 256
