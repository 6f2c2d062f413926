// Package span is the exploration pipeline's flight recorder: typed,
// timestamped spans for every pipeline stage (trace/log ingest, v2 block
// decode, compile, partition build, batch waves, surrogate screening,
// partial and full simulations, cache probes, journal flushes), recorded
// into fixed-capacity per-worker ring buffers with zero steady-state
// allocation, and exportable as Chrome trace-event JSON for Perfetto.
//
// Recording is built for the replay hot path, mirroring the telemetry
// shards: a worker owns one Ring, a span record is an atomic slot claim
// plus a handful of uncontended atomic adds into padded pre-sized arrays
// — no locks, no maps, no allocation — so the AllocsPerRun guard on the
// steady-state replay loop keeps reporting zero with the recorder
// attached. Aggregate readers (the Prometheus handler, the run-summary
// stage table) merge the per-stage atomics at any time; the raw ring
// entries are read only after the workers have quiesced (end of run or
// signal-driven finalize), so the trace export never races a recording
// worker over span contents.
package span

import (
	"sync/atomic"
	"time"

	"dmexplore/internal/stats"
)

// Stage identifies one pipeline stage. The String names are a stable
// contract: they appear in trace files, run summaries and as Prometheus
// label values (and will become per-island labels in the distributed
// service), so renaming one is a breaking change.
type Stage uint8

const (
	StageLogIngest       Stage = iota // parsing a profile log into summaries
	StageTraceIngest                  // reading or generating a workload trace
	StageBlockDecode                  // decoding block-framed v2 payloads
	StageCompile                      // compiling a trace into columnar slabs
	StagePartitionBuild               // invariant-partition replay (incremental path)
	StageBatchWave                    // one evaluation wave across the worker pool
	StageSurrogateScreen              // surrogate ranking/screening of a candidate set
	StagePartialSim                   // partial (incremental) simulation of one config
	StageFullSim                      // full replay simulation of one config
	StageCacheProbe                   // results-cache lookup for one config
	StageJournalFlush                 // flushing the JSONL journal to disk
	StageCompose                      // memoized pool-run composition of one config (no sim)

	NumStages int = iota
)

var stageNames = [NumStages]string{
	StageLogIngest:       "log-ingest",
	StageTraceIngest:     "trace-ingest",
	StageBlockDecode:     "block-decode",
	StageCompile:         "compile",
	StagePartitionBuild:  "partition-build",
	StageBatchWave:       "batch-wave",
	StageSurrogateScreen: "surrogate-screen",
	StagePartialSim:      "partial-sim",
	StageFullSim:         "full-sim",
	StageCacheProbe:      "cache-probe",
	StageJournalFlush:    "journal-flush",
	StageCompose:         "compose",
}

// String returns the stage's stable wire name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages returns every stage in declaration order — the iteration order
// of the metric and summary surfaces, so exposition is deterministic.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Span is one recorded interval. Start is nanoseconds since the
// recorder's epoch; Arg is a stage-specific payload (events replayed,
// candidates scored, bytes decoded, records flushed).
type Span struct {
	Stage Stage
	Start int64 // ns since Recorder epoch
	Dur   int64 // ns
	Arg   int64
}

// stageAgg is one stage's merged accounting within a ring: span count,
// total nanoseconds, and a log2 duration histogram. All atomics, so the
// Prometheus handler can scrape mid-run without perturbing the worker.
type stageAgg struct {
	count atomic.Uint64
	nanos atomic.Int64
	hist  [stats.NumLog2Buckets]atomic.Uint64
}

// Ring is one worker's span buffer: a fixed-capacity circular buffer of
// raw spans plus per-stage aggregates. Slots are claimed with an atomic
// counter, so occasional multi-goroutine writers (the coordinator ring)
// stay safe; the raw entries are read only after writers quiesce. The
// struct is padded to keep adjacent rings out of each other's cache
// lines.
type Ring struct {
	epoch  time.Time
	spans  []Span
	n      atomic.Uint64 // total spans recorded (wraps over the buffer)
	stages [NumStages]stageAgg

	_ [64]byte
}

// Record appends one span with an explicit start offset and duration.
// Nil-safe: a nil ring records nothing, so call sites need no guard.
func (r *Ring) Record(st Stage, start, dur time.Duration, arg int64) {
	if r == nil {
		return
	}
	ns := dur.Nanoseconds()
	agg := &r.stages[st]
	agg.count.Add(1)
	agg.nanos.Add(ns)
	agg.hist[stats.Log2Bucket(ns)].Add(1)
	i := r.n.Add(1) - 1
	r.spans[i%uint64(len(r.spans))] = Span{
		Stage: st,
		Start: start.Nanoseconds(),
		Dur:   ns,
		Arg:   arg,
	}
}

// Since records a span that started at the wall-clock instant start and
// ends now — the Begin/End form the instrumentation sites use:
//
//	start := time.Now()
//	...stage work...
//	ring.Since(span.StageFullSim, start, int64(events))
//
// Nil-safe like Record.
func (r *Ring) Since(st Stage, start time.Time, arg int64) {
	if r == nil {
		return
	}
	r.Record(st, start.Sub(r.epoch), time.Since(start), arg)
}

// Len returns how many spans the ring has recorded (including ones the
// buffer has since overwritten).
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.n.Load()
}

// Recorder owns the rings of one run: one per worker plus a coordinator
// ring for the stages driven by the strategy goroutine (batch waves,
// surrogate screening, ingest, compile, journal flushes).
type Recorder struct {
	epoch time.Time
	rings []Ring
}

// DefaultRingCapacity is the per-ring span capacity when NewRecorder is
// given none: large enough that a multi-thousand-configuration sweep
// keeps every span, small enough (~40 B/span) to stay off any budget.
const DefaultRingCapacity = 1 << 14

// NewRecorder returns a recorder with one ring per worker plus the
// coordinator ring, all sharing one epoch. workers <= 0 allocates a
// single worker ring; capacity <= 0 uses DefaultRingCapacity.
func NewRecorder(workers, capacity int) *Recorder {
	if workers <= 0 {
		workers = 1
	}
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	epoch := time.Now()
	rings := make([]Ring, workers+1)
	for i := range rings {
		rings[i].epoch = epoch
		rings[i].spans = make([]Span, capacity)
	}
	return &Recorder{epoch: epoch, rings: rings}
}

// Ring returns worker i's ring, wrapping like telemetry.Collector.Shard
// when more workers than rings show up. Nil-safe: a nil recorder returns
// a nil ring, which records nothing.
func (r *Recorder) Ring(i int) *Ring {
	if r == nil {
		return nil
	}
	if i < 0 {
		i = -i
	}
	return &r.rings[i%(len(r.rings)-1)]
}

// Coord returns the coordinator ring (ingest, compile, batch waves,
// surrogate screening, journal flushes). Nil-safe.
func (r *Recorder) Coord() *Ring {
	if r == nil {
		return nil
	}
	return &r.rings[len(r.rings)-1]
}

// Workers returns the number of worker rings (the coordinator ring is
// extra).
func (r *Recorder) Workers() int {
	if r == nil {
		return 0
	}
	return len(r.rings) - 1
}

// StageSnapshot is one stage's merged accounting across every ring — the
// run-summary breakdown row and the Prometheus histogram source.
type StageSnapshot struct {
	Stage   Stage    `json:"-"`
	Name    string   `json:"stage"`
	Count   uint64   `json:"count"`
	Seconds float64  `json:"seconds"`
	Buckets []uint64 `json:"-"` // merged log2 duration histogram (ns buckets)
}

// Snapshot merges every ring into one row per stage, in stage order. All
// stages are present (count 0 when never recorded) so metric names stay
// stable across runs.
func (r *Recorder) Snapshot() []StageSnapshot {
	if r == nil {
		return nil
	}
	out := make([]StageSnapshot, NumStages)
	for st := 0; st < NumStages; st++ {
		row := &out[st]
		row.Stage = Stage(st)
		row.Name = Stage(st).String()
		row.Buckets = make([]uint64, stats.NumLog2Buckets)
		var nanos int64
		for i := range r.rings {
			agg := &r.rings[i].stages[st]
			row.Count += agg.count.Load()
			nanos += agg.nanos.Load()
			for b := range agg.hist {
				row.Buckets[b] += agg.hist[b].Load()
			}
		}
		row.Seconds = float64(nanos) / 1e9
	}
	return out
}

// Dropped returns how many spans were overwritten before export: the sum
// over rings of max(0, recorded - capacity).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var dropped uint64
	for i := range r.rings {
		if n := r.rings[i].n.Load(); n > uint64(len(r.rings[i].spans)) {
			dropped += n - uint64(len(r.rings[i].spans))
		}
	}
	return dropped
}
