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
// NSGA-II generation, one per screen-and-refine ring) pays the pool spin-up cost exactly once instead of
// once per wave.
//
// Eval is safe for concurrent use; results come back in request order, so
// callers see a deterministic reduction order regardless of Workers.
type EvalSession struct {
	r       *Runner
	space   *Space
	ct      *trace.Compiled
	col     *telemetry.Collector
	spans   *span.Recorder // col's recorder: every stage is counted here once
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

	// parts caches the invariant partition per fixed-pool signature,
	// built once however many workers ask for it; it and runs are nil
	// unless Runner.Incremental was set at session start. It is bounded by
	// DefaultPartitionBudgetBytes so long NSGA-II runs over
	// signature-rich spaces cannot grow it without limit; an evicted
	// signature simply rebuilds on next use.
	parts *onceCache[*profile.Partition]

	// runs memoizes standalone general-pool replays by appendPoolRunKey
	// (recorded-op content hash, general-pool parameters). A hit
	// composes cached per-gap reserve levels and metric components with
	// the candidate's partition in O(ops) additions — no simulation.
	// Bounded like parts, by DefaultPoolMemoBudgetBytes.
	runs *onceCache[*profile.PoolRun]

	// total/done drive the Progress callback: total grows as batches are
	// submitted, done as configurations complete.
	total atomic.Int64
	done  atomic.Int64

	closed atomic.Bool
}

// memoSizeHint caps the initial size of the memo and the incremental
// caches: a session over a space of at most this many configurations
// never grows their maps.
const memoSizeHint = 1024

// Byte budgets of every session's incremental caches; the pool-run
// budget also bounds dmexplore's -cache Store, where it holds about
// 190,000 FullEasyportSpace metrics records. At typical trace scales
// (10^5–10^6 recorded ops, ~16 bytes per op across the partition's
// slices) they hold hundreds of partitions and thousands of pool runs —
// far past what a guided search touches — while keeping a week-long
// NSGA-II service run bounded.
const (
	DefaultPartitionBudgetBytes = 256 << 20
	DefaultPoolMemoBudgetBytes  = 128 << 20
)

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
func (s *EvalSession) IncrementalCacheStats() (st IncrementalCacheStats) {
	if s.parts != nil {
		st.PartitionEntries, st.PartitionBytes, st.PartitionEvictions = s.parts.stats()
		st.PoolRunEntries, st.PoolRunBytes, st.PoolRunEvictions = s.runs.stats()
	}
	return st
}

// evalJob is one configuration handed to a session worker: where to write
// the result and which batch to signal when done. labels is the result's
// slot per axis for its option labels. origin is its search provenance,
// stamped onto the result so the journal pairs it with the exact
// metrics.
type evalJob struct {
	idx    int
	out    *Result
	wg     *sync.WaitGroup
	labels []string
	origin *telemetry.Origin
}

// evalScratch is one worker's reusable evaluation state: the
// configuration each evaluation is materialized into, the buffer its ID
// is built in and the buffer its cache keys are built in, plus the ring
// its stages are recorded in. Nothing that outlives an evaluation may
// alias the first three: the configuration's Fixed array is rewritten by
// the next one.
type evalScratch struct {
	cfg   alloc.Config
	id    []byte
	key   []byte
	spans *span.Ring
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
	if r.Spans != nil {
		col.Use(r.Spans)
	}
	s := &EvalSession{
		r:         r,
		space:     space,
		ct:        ct,
		col:       col,
		spans:     col.Spans(),
		workers:   workers,
		hierarchy: r.Hierarchy.Fingerprint(),
		traceID:   fmt.Sprintf("%s(%d)", ct.Name, ct.Len()),
		jobs:      make(chan evalJob, 2*workers),
		memo:      make(map[string]*profile.Metrics, min(space.Size(), memoSizeHint)),
	}
	if r.Incremental {
		hint := min(space.Size(), memoSizeHint)
		s.parts = newOnceCache[*profile.Partition](DefaultPartitionBudgetBytes).reserve(hint)
		s.runs = newOnceCache[*profile.PoolRun](DefaultPoolMemoBudgetBytes).reserve(hint)
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
// origins may be nil; when set it holds one entry per index (entries may
// be nil): origins[i] is the search provenance of indices[i], stamped
// onto the Result before the Observer sees it, so the journal pairs it
// with the exact metrics (`dmreport -lineage` reconstructs ancestry from
// the origins). The wave lands one batch-wave span on the coordinator
// ring.
//
// On failure every slot is still populated (per-result Err) and the
// returned error wraps the first failure in request order.
func (s *EvalSession) Eval(indices []int, origins []*telemetry.Origin) ([]Result, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("core: eval on closed session")
	}
	if len(indices) == 0 {
		return nil, nil
	}
	if origins != nil && len(origins) != len(indices) {
		return nil, fmt.Errorf("core: %d origins for %d indices", len(origins), len(indices))
	}
	waveStart := time.Now()
	results := make([]Result, len(indices))
	axes := len(s.space.Axes)
	labels := make([]string, len(indices)*axes)
	s.total.Add(int64(len(indices)))
	var batch sync.WaitGroup
	batch.Add(len(indices))
	for i, idx := range indices {
		job := evalJob{idx: idx, out: &results[i], wg: &batch,
			labels: labels[i*axes : (i+1)*axes : (i+1)*axes]}
		if origins != nil {
			job.origin = origins[i]
		}
		s.jobs <- job
	}
	batch.Wait()
	s.spans.Coord().Since(span.StageBatchWave, waveStart, int64(len(indices)))
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

// worker is one long-lived pool member: a telemetry shard, a span ring
// and a Replayer whose scratch tables persist across every batch of the
// session, and past it: the Replayer goes back to profile's pool when
// the worker exits.
func (s *EvalSession) worker(w int) {
	defer s.wg.Done()
	shard := s.col.Shard(w)
	rep := profile.GetReplayer()
	defer profile.PutReplayer(rep)
	var debt time.Duration
	sc := evalScratch{id: make([]byte, 0, keyBufLen), key: make([]byte, 0, keyBufLen), spans: s.spans.Ring(w)}
	for job := range s.jobs {
		res := s.evalOne(job.idx, job.labels, &sc, rep, shard, &debt)
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

// evalOne profiles one configuration: resolve finds its metrics, and
// the epilogue below is the one place a result is written to the Store
// and the memo, charged modelled backend latency and counted as busy.
// Memo hits do none of the first three; Store hits are only memoized.
func (s *EvalSession) evalOne(idx int, labels []string, sc *evalScratch, rep *profile.Replayer, shard *telemetry.Shard, debt *time.Duration) Result {
	start := time.Now()
	res := Result{Index: idx}
	key, charge := s.resolve(&res, labels, sc, rep, shard)
	if res.Err == nil && !res.MemoHit {
		if !res.CacheHit && s.r.Store != nil {
			s.r.Store.PutMetrics(key, res.Metrics)
		}
		s.memoMu.Lock()
		s.memo[string(sc.id)] = res.Metrics
		s.memoMu.Unlock()
		if charge > 0 { // accrue; sleep in whole round-trips (see EvalLatency)
			*debt += charge
			if *debt >= s.r.EvalLatency {
				time.Sleep(*debt)
				*debt = 0
			}
		}
	}
	res.Duration = time.Since(start)
	shard.AddBusy(res.Duration)
	shard.AddSkipped(res.EventsSkipped)
	return res
}

// resolve fills res with configuration idx's metrics from the first tier
// that has them: materialize into the worker's scratch (labels receives
// the option labels), the session memo, the Store, the partial replay or
// composition, and last a full replay. It returns the Store key (empty
// without a Store, or on a memo hit) and the modelled backend latency the
// evaluation costs.
func (s *EvalSession) resolve(res *Result, labels []string, sc *evalScratch, rep *profile.Replayer, shard *telemetry.Shard) (key string, charge time.Duration) {
	r := s.r
	cfg := &sc.cfg
	if err := s.space.configInto(res.Index, cfg, labels); err != nil {
		res.Err = fmt.Errorf("configuration %d: %w", res.Index, err)
		shard.ConfigError()
		return "", 0
	}
	res.Labels = labels
	sc.id = cfg.AppendID(sc.id[:0])

	s.memoMu.Lock()
	m := s.memo[string(sc.id)]
	s.memoMu.Unlock()
	if m != nil {
		res.Metrics, res.MemoHit = relabel(m, cfg.Label), true
		shard.MemoHit()
		return "", 0
	}

	if r.Store != nil {
		probeStart := time.Now()
		key = storeKey(s.hierarchy, s.traceID+"\x1f"+string(sc.id))
		hit := int64(0)
		if m, ok := r.Store.Metrics(key); ok {
			res.Metrics, res.CacheHit = relabel(m, cfg.Label), true
			hit = 1
		}
		sc.spans.Since(span.StageCacheProbe, probeStart, hit)
		if res.CacheHit {
			return key, 0
		}
	}

	if s.parts != nil {
		if charge, ok := s.partial(res, sc, rep); ok {
			return key, charge
		}
	}

	start := time.Now()
	res.Metrics, res.Err = rep.Run(s.ct, *cfg, r.Hierarchy, profile.Options{})
	if res.Err != nil {
		// Surface which configuration died, not just how: index and axis
		// labels identify it in the space without a replay.
		res.Err = fmt.Errorf("configuration %d [%s]: %w",
			res.Index, strings.Join(labels, " "), res.Err)
		shard.SimError()
		return key, 0
	}
	sc.spans.Since(span.StageFullSim, start, int64(s.ct.Len()))
	return key, r.EvalLatency
}

// partial evaluates cfg by partial re-evaluation: configurations sharing
// a fixed-pool signature reuse one invariant partition, and the
// standalone general-pool run is memoized by recorded-op content, so a
// candidate whose sequence was already replayed under the same general
// vector composes in O(ops) with no simulation. It returns false when the
// path declines (a partition fault, a capacity interaction, a pool
// failure the failure-replay path cannot reproduce); the caller then
// replays in full.
func (s *EvalSession) partial(res *Result, sc *evalScratch, rep *profile.Replayer) (charge time.Duration, ok bool) {
	part := s.partition(sc, rep)
	if part == nil {
		return 0, false
	}
	pstart := time.Now()
	run, built := s.poolRun(part, sc, rep)
	if run == nil {
		return 0, false
	}
	if res.Metrics, ok = rep.Compose(part, run, sc.cfg, s.r.Hierarchy); !ok {
		return 0, false
	}
	res.Incremental = true
	if !built {
		// Memo hit: the evaluation is a pure composition. It charges its
		// own (microsecond) cost and no modelled backend latency —
		// nothing re-ran.
		res.Composed = true
		res.EventsSkipped = uint64(part.Events())
		sc.spans.Since(span.StageCompose, pstart, int64(part.Ops()))
		return 0, true
	}
	res.EventsSkipped = uint64(part.SkippedEvents())
	sc.spans.Since(span.StagePartialSim, pstart, int64(part.Ops()))
	// The modelled backend replays only the partition's recorded ops, so
	// it charges latency pro-rata to the replayed fraction of the trace.
	return time.Duration(float64(s.r.EvalLatency) * float64(part.Ops()) / float64(part.Events())), true
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

// partition returns the invariant partition for the fixed-pool
// signature of the worker's configuration, building it on first use —
// one full-trace replay per signature, shared by every worker for the
// rest of the session. A nil return means the partition could not be
// built (a fault the full replay path will surface per configuration).
func (s *EvalSession) partition(sc *evalScratch, rep *profile.Replayer) *profile.Partition {
	sc.key = appendPartitionKey(sc.key[:0], &sc.cfg)
	part, _ := s.parts.get(sc.key, func() (*profile.Partition, bool) {
		start := time.Now()
		part, err := rep.Partition(s.ct, sc.cfg, s.r.Hierarchy)
		if err == nil {
			sc.spans.Since(span.StagePartitionBuild, start, int64(s.ct.Len()))
		}
		return part, err == nil
	})
	return part
}

// poolRun returns the memoized standalone general-pool run for part's
// recorded op sequence under the worker configuration's general-pool
// parameters, building it on first use; concurrent workers claiming the
// same key build exactly once. built reports whether this call executed
// the standalone replay (false: served by the memo — the caller's
// composition is the whole evaluation). A nil run means the replay
// declined and only a full replay can evaluate the configuration.
func (s *EvalSession) poolRun(part *profile.Partition, sc *evalScratch, rep *profile.Replayer) (run *profile.PoolRun, built bool) {
	cfg := &sc.cfg
	sc.key = appendPoolRunKey(sc.key[:0], part.OpsHash(), part.Ops(), cfg.General)
	run, ok := s.runs.get(sc.key, func() (*profile.PoolRun, bool) {
		built = true
		return rep.PoolReplay(part, *cfg, s.r.Hierarchy)
	})
	if !ok {
		return nil, built
	}
	if !built && !run.MatchesOps(part) {
		// Content-hash collision: the cached run replayed a different op
		// sequence. Compute privately rather than trust or replace it.
		if r2, ok2 := rep.PoolReplay(part, *cfg, s.r.Hierarchy); ok2 {
			return r2, true
		}
		return nil, true
	}
	return run, built
}

// appendPoolRunKey appends the pool-run memo's key to b: the recorded op
// sequence's content hash and length, and the canonical general-pool
// parameter vector. With the session's hierarchy, that is everything a
// standalone replay depends on; the sequence itself is verified on reuse
// (PoolRun.MatchesOps) so a hash collision degrades to a private
// rebuild, never a wrong composition. The key never leaves the session.
func appendPoolRunKey(b []byte, opsHash uint64, ops int, g alloc.GeneralConfig) []byte {
	b = strconv.AppendUint(b, opsHash, 16)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(ops), 10)
	b = append(b, '/')
	return g.AppendID(b)
}

// appendPartitionKey appends the canonical fixed-pool signature to b:
// the fixed pools (which fully determine request routing and the
// fixed-side simulation) plus the general pool's layer (which determines
// where fallback ops land). Configurations sharing a key share one
// Partition. The key is FixedID's bytes, then "G@" and the layer, as in
// ID; it never leaves the session.
func appendPartitionKey(b []byte, cfg *alloc.Config) []byte {
	b = append(cfg.AppendFixedID(b), "G@"...)
	return append(b, cfg.General.Layer...)
}

// keyBufLen sizes each worker's buffers keys and IDs are built in, which
// grow only for a longer key.
const keyBufLen = 256
