package profile

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/mutant"
	"dmexplore/internal/simheap"
	"dmexplore/internal/trace"
)

// Incremental re-evaluation: configurations that share their fixed-pool
// signature (the Fixed slice plus the general pool's layer) differ only
// in the fallback pool's policy. Request routing in alloc.Composed is a
// pure function of the fixed pools — a request reaches the general pool
// iff no fixed pool matches-and-serves it — so the fixed-side simulation
// (routing cycles, fixed-pool metadata traffic, application accesses,
// ticks) is invariant across every such configuration.
//
// Partition replays the trace once per signature with the real fixed
// pools composed over an inert recording fallback, capturing (a) the
// invariant per-layer counters and cycles and (b) the exact sequence of
// ops that reached the fallback. PoolReplay then replays only that op
// sequence against a candidate's standalone general pool, and Compose
// adds the two runs into bit-identical full-replay metrics.
//
// Exactness on the shared layer: fixed pools and the general pool may
// reserve from the same layer (e.g. both on DRAM). The layer's reserved
// bytes decompose as F(t)+G(t) with F driven only by fixed-side events
// and G only by fallback ops. G is monotone non-decreasing — fallback
// pools never release arenas — and constant between fallback ops, so
//
//	peak(F+G) = max over gaps j of (max F within gap j) + (G after op j)
//
// where a "gap" is the run of events between consecutive fallback ops.
// Partition reads max F within a gap as the general layer's PeakBytes,
// restarted by Context.ResetPeak at every fallback op. Every candidate
// value is attained at a real reserve instant and every real reserve
// instant is dominated by a candidate, so the composed peak is exact.
// When the shared layer is bounded the composed peak is also how
// capacity divergence is detected: the real run's first failing reserve
// would make some candidate exceed the capacity, so Compose declines
// whenever the composed peak overflows (and PoolReplay whenever the
// standalone pool itself errors), leaving the incremental path to serve
// only runs it reproduces exactly; the caller falls back to a full
// replay.
//
// The partial path requires fast-path profiling (no tracer or caches,
// no footprint series): the recording fallback hands out
// synthetic addresses, which only the flat address-independent cost
// model may observe.
//
// The standalone general-pool run depends only on the recorded op
// sequence and the general pool's parameters — not on which fixed-pool
// signature recorded the sequence — so a PoolRun captured under one
// partition composes exactly with any partition whose recorded ops are
// content-identical. The session memoizes PoolRuns by (ops content hash,
// GeneralConfig.ID), turning a fixed-axis move whose neighbour records
// the same fallback sequence (reclaim flips, pool-set swaps that route
// identically, NSGA-II crossover offspring mixing a seen fixed signature
// with a seen general vector) into an O(ops) composition with no
// simulation at all.
//
// Exactness extends to capacity-failing runs when no fixed pool shares
// the general layer: the standalone pool then sees exactly the reserve
// headroom the real composed run would (fixed-side occupancy on the
// general layer is identically zero), so its allocation failures — pool
// budget or layer capacity — reproduce the real run's failures
// op-for-op. PoolReplay records them; Compose subtracts the partition's
// charges for the events the real replay loop would have skipped (the
// failed allocation's accesses, and the free-dispatch cycles of its
// skipped KindFree). When a fixed pool does share the general layer a
// failing run still declines to a full replay: the standalone pool
// cannot see the fixed-side occupancy that decides which reserve fails
// first.

// recBase is the synthetic address base the recording fallback hands
// out. Real reservations are bump-allocated from zero and never approach
// 2^48 bytes, so a synthetic address never equals a fixed-pool payload
// address and Partition tells fallback-served allocations by address.
const recBase = uint64(1) << 48

// recordingFallback is the inert general pool behind Partition's
// invariant replay: it satisfies every request without touching the
// simulation counters, records the op sequence for later standalone
// replay, and reads the fixed-side peak on the general layer at each op
// boundary (closing one "gap"). It lives in the Replayer, so its
// recordings grow once per Replayer; Partition copies them out at their
// final lengths.
type recordingFallback struct {
	ctx   *simheap.Context
	layer memhier.LayerID

	// ops is the recorded fallback sequence: v > 0 is an allocation of v
	// bytes; v < 0 frees the (^v)-th recorded allocation.
	ops   []int64
	sizes []int64 // requested bytes per recorded allocation, 0 once freed

	fMax []int64 // per closed gap: max fixed-side reserved bytes
}

// reset starts a recording on ctx's layer, keeping the buffers.
func (p *recordingFallback) reset(ctx *simheap.Context, layer memhier.LayerID) {
	fMax := p.fMax[:0]
	if mutant.Name == "recording-untruncated" {
		fMax = p.fMax
	}
	*p = recordingFallback{ctx: ctx, layer: layer, ops: p.ops[:0], sizes: p.sizes[:0], fMax: fMax}
}

// boundary closes the open gap at a fallback op. Only fixed pools
// reserve on the partition's context, and its general layer's peak is
// reset at every boundary, so that peak is the open gap's maximum.
func (p *recordingFallback) boundary() {
	p.fMax = append(p.fMax, p.ctx.Counters(p.layer).PeakBytes)
	if mutant.Name != "partition-no-gap-reset" {
		p.ctx.ResetPeak(p.layer)
	}
}

func (p *recordingFallback) Malloc(size int64) (alloc.Ptr, error) {
	p.boundary()
	k := len(p.sizes)
	p.sizes = append(p.sizes, size)
	p.ops = append(p.ops, size)
	return alloc.Ptr{Layer: p.layer, Addr: recBase + uint64(k)*simheap.WordSize}, nil
}

func (p *recordingFallback) Free(ptr alloc.Ptr) error {
	p.boundary()
	k := (ptr.Addr - recBase) / simheap.WordSize
	if ptr.Addr < recBase || k >= uint64(len(p.sizes)) || p.sizes[k] == 0 {
		return fmt.Errorf("profile: recording fallback: free of unknown addr %#x", ptr.Addr)
	}
	p.sizes[k] = 0
	p.ops = append(p.ops, ^int64(k))
	return nil
}

// Partition is the fixed-side-invariant decomposition of one compiled
// trace under one fixed-pool signature: everything a partial replay
// needs except the candidate's general pool. It is immutable once built
// and shared read-only by all workers evaluating configurations with
// the same signature.
type Partition struct {
	genLayer memhier.LayerID
	events   int

	counters []simheap.LayerCounters // invariant per-layer counters
	cycles   uint64
	mallocs  uint64
	frees    uint64

	ops    []int64 // recorded fallback ops (see recordingFallback.ops)
	allocs int
	fMax   []int64 // len(ops)+1 gap maxima on genLayer

	// opsHash is a content hash of ops — the pool-run memo key half that
	// lets content-identical sequences recorded under different fixed-pool
	// signatures share one standalone general-pool run.
	opsHash uint64

	// numFixed is the configuration's fixed-pool count; the composed
	// free-dispatch cost is numFixed+1 compute cycles, which failure
	// replay must subtract for each free the real run skips.
	numFixed int

	// sharesGen records whether any fixed pool reserves from the general
	// layer. Failure replay is exact only when false (the standalone pool
	// then sees the real run's exact reserve headroom).
	sharesGen bool

	// recReads/recWrites hold, per recorded allocation, the word reads
	// and writes the trace charges to it — the general-layer traffic the
	// real replay loop skips when that allocation fails.
	recReads  []uint64
	recWrites []uint64
}

// Ops returns the number of recorded fallback ops a partial replay
// re-simulates.
func (p *Partition) Ops() int { return len(p.ops) }

// Events returns the compiled trace's event count the partition covers.
func (p *Partition) Events() int { return p.events }

// SkippedEvents returns how many trace events a partial replay avoids
// re-simulating compared to a full replay.
func (p *Partition) SkippedEvents() int { return p.events - len(p.ops) }

// OpsHash returns the content hash of the recorded fallback op sequence
// (FNV-1a over the op words). Equal hashes are a memo-probe filter, not
// a correctness guarantee: pool-run reuse additionally verifies the full
// sequence (see PoolRun.MatchesOps).
func (p *Partition) OpsHash() uint64 { return p.opsHash }

// MemBytes estimates the partition's retained heap footprint, the unit
// the session's size-aware cache bound accounts in.
func (p *Partition) MemBytes() int64 {
	return int64(len(p.ops))*8 + int64(len(p.fMax))*8 +
		int64(len(p.recReads))*16 + int64(len(p.counters))*32 + 256
}

// Partition replays ct once with cfg's fixed pools composed over an
// inert recording fallback, producing the invariant decomposition shared
// by every configuration with the same fixed-pool signature. It runs the
// flat loop (replayFlat): the fast-path cost model of Run with zero
// Options.
func (r *Replayer) Partition(ct *trace.Compiled, cfg alloc.Config, h *memhier.Hierarchy) (*Partition, error) {
	genLayer, ok := h.ByName(cfg.General.Layer)
	if !ok {
		return nil, fmt.Errorf("profile: unknown general layer %q", cfg.General.Layer)
	}
	ctx := r.context(h)
	rec := &r.rec
	rec.reset(ctx, genLayer)
	defer r.blocks.Reclaim()
	a, err := cfg.BuildWithFallback(ctx, rec, &r.blocks)
	if err != nil {
		return nil, fmt.Errorf("profile: building fixed side of %s: %w", cfg.ID(), err)
	}
	// Gap 0 opens after the fixed pools' construction-time reserves — the
	// instant the real build would construct the general pool.
	ctx.ResetPeak(genLayer)

	p := &Partition{genLayer: genLayer, events: ct.Len(), numFixed: len(cfg.Fixed)}
	for _, f := range cfg.Fixed {
		if id, ok := h.ByName(f.Layer); ok && id == genLayer {
			p.sharesGen = true
		}
	}
	// The recording fallback never fails, so any error is a fixed-side
	// fault the full replay path must surface.
	var m Metrics
	r.reset(ct.NumIDs)
	if err := r.replayFlat(ct, a, ctx, &m); err != nil {
		return nil, err
	}
	rec.boundary() // close the final gap

	// IDs are never reused, so the pointer table still names every
	// allocation, and a recorded one by its synthetic address.
	p.recReads = make([]uint64, len(rec.sizes))
	p.recWrites = make([]uint64, len(rec.sizes))
	for id, ptr := range r.ptrs {
		if ptr.Addr >= recBase {
			k := (ptr.Addr - recBase) / simheap.WordSize
			p.recReads[k] = r.flat.reads[id]
			p.recWrites[k] = r.flat.writes[id]
		}
	}
	p.counters = make([]simheap.LayerCounters, h.NumLayers())
	for i := range p.counters {
		p.counters[i] = ctx.Counters(memhier.LayerID(i))
	}
	p.cycles = ctx.Cycles()
	p.mallocs = m.Mallocs
	p.frees = m.Frees
	// The recordings stay in the Replayer; the partition keeps copies
	// at their final lengths.
	p.ops = append(make([]int64, 0, len(rec.ops)), rec.ops...)
	p.allocs = len(rec.sizes)
	p.fMax = append(make([]int64, 0, len(rec.fMax)), rec.fMax...)
	p.opsHash = hashOps(p.ops)
	return p, nil
}

// PoolRun is one standalone general-pool replay of a recorded fallback
// op sequence: everything Compose needs to assemble full-run metrics in
// O(ops) additions without re-simulating. It depends only on the op
// sequence's content and the general pool's parameters — not on which
// partition recorded the sequence — so it is shareable (via the
// session's pool-run memo) across every partition whose recorded ops are
// content-identical. Immutable once built.
type PoolRun struct {
	ops []int64 // the replayed sequence (shared with the recording partition)

	// gSteps holds the pool-reserved bytes after the build and after each
	// op as change points: the level moves only when the pool grows.
	gSteps   []gStep
	counters []simheap.LayerCounters
	cycles   uint64

	// Failure replay: failed[k] marks the k-th recorded allocation as
	// failed (nil when the run is clean), failures counts them, and
	// skippedFrees counts the recorded frees of failed allocations — the
	// KindFree events the real replay loop skips.
	failed       []bool
	failures     uint64
	skippedFrees uint64
}

// gStep is one change point of a PoolRun's reserved bytes: the level
// after op at-1 (after the build for at 0) and onward until the next step.
type gStep struct {
	at    int
	bytes int64
}

// stepEnd returns where step s stops holding: the next step's start, or
// n, the length of the gAfter sequence, for the last step.
func (pr *PoolRun) stepEnd(s, n int) int {
	if s+1 < len(pr.gSteps) {
		return pr.gSteps[s+1].at
	}
	return n
}

// Ops returns the length of the replayed op sequence.
func (pr *PoolRun) Ops() int { return len(pr.ops) }

// Failures returns the allocation failures the standalone replay
// recorded.
func (pr *PoolRun) Failures() uint64 { return pr.failures }

// MatchesOps verifies the run's op sequence is content-identical to the
// partition's — the collision-safety check behind the hash-keyed memo. A
// mismatch means a hash collision; the caller must replay instead of
// composing.
func (pr *PoolRun) MatchesOps(part *Partition) bool {
	if len(pr.ops) != len(part.ops) {
		return false
	}
	for i, op := range pr.ops {
		if op != part.ops[i] {
			return false
		}
	}
	return true
}

// MemBytes estimates the run's retained heap footprint (the shared ops
// slice is charged to the partition that recorded it).
func (pr *PoolRun) MemBytes() int64 {
	return int64(len(pr.gSteps))*16 + int64(len(pr.failed)) +
		int64(len(pr.counters))*32 + 192
}

// PoolReplay replays part's recorded fallback ops against a standalone
// instance of cfg's general pool, producing the sharable PoolRun half of
// a partial evaluation. Allocation failures wrapping alloc.ErrOutOfMemory
// — pool budget exhausted or layer capacity overflow — are recorded and
// replayed through, exactly as the real replay loop records a failure
// and skips the allocation's later frees; any other pool error returns
// ok=false (a full replay must surface it).
func (r *Replayer) PoolReplay(part *Partition, cfg alloc.Config, h *memhier.Hierarchy) (*PoolRun, bool) {
	ctx := r.context(h)
	defer r.blocks.Reclaim()
	pool, err := cfg.BuildGeneral(ctx, &r.blocks)
	if err != nil {
		return nil, false
	}
	genLayer := part.genLayer
	if cap(r.genPtrs) < part.allocs {
		r.genPtrs = make([]alloc.Ptr, 0, part.allocs)
	}
	// ptrs holds one entry per recorded allocation; a failed one keeps
	// the zero Ptr, never freed, so later indices stay aligned.
	ptrs := r.genPtrs[:0]
	run := &PoolRun{ops: part.ops}
	// The change points collect in the Replayer's scratch and are copied
	// out at their final length.
	g := ctx.Counters(genLayer).ReservedBytes
	steps := append(r.steps[:0], gStep{0, g})
	allocIdx := 0
	for j, op := range part.ops {
		if op > 0 {
			k := allocIdx
			allocIdx++
			ptr, err := pool.Malloc(op)
			switch {
			case err == nil:
				ptrs = append(ptrs, ptr)
			case errors.Is(err, alloc.ErrOutOfMemory):
				if run.failed == nil {
					run.failed = make([]bool, part.allocs)
				}
				run.failed[k] = true
				run.failures++
				ptrs = append(ptrs, alloc.Ptr{})
			default:
				return nil, false
			}
		} else {
			k := ^op
			if run.failed != nil && run.failed[k] {
				run.skippedFrees++
			} else if err := pool.Free(ptrs[k]); err != nil {
				return nil, false
			}
		}
		if now := ctx.Counters(genLayer).ReservedBytes; now != g {
			g = now
			steps = append(steps, gStep{j + 1, g})
		}
	}
	r.steps = steps
	run.gSteps = slices.Clone(steps)
	run.counters = make([]simheap.LayerCounters, h.NumLayers())
	for i := range run.counters {
		run.counters[i] = ctx.Counters(memhier.LayerID(i))
	}
	run.cycles = ctx.Cycles()
	return run, true
}

// Compose assembles full-run metrics from a partition's invariant half
// and a standalone PoolRun of its recorded op sequence — O(ops)
// additions, no simulation. run must have been produced by PoolReplay on
// an op sequence content-identical to part's (the memo verifies this via
// MatchesOps), and cfg must share part's fixed-pool signature with run's
// general-pool parameters. The result is bit-identical to a full
// fast-path Run. ok is false when composition cannot reproduce the full
// replay exactly: the composed peak overflows the general layer's
// capacity, or the run recorded allocation failures while a fixed pool
// shares the general layer (the standalone pool's failure points then
// diverge from the real run's).
func (r *Replayer) Compose(ct *trace.Compiled, part *Partition, run *PoolRun, cfg alloc.Config, h *memhier.Hierarchy) (*Metrics, bool) {
	if run.failures > 0 && part.sharesGen {
		return nil, false
	}
	genLayer := part.genLayer
	maxSum := int64(math.MinInt64)
	for s, st := range run.gSteps {
		for _, f := range part.fMax[st.at:run.stepEnd(s, len(part.fMax))] {
			maxSum = max(maxSum, f+st.bytes)
		}
	}
	if layer := h.Layer(genLayer); layer.Bounded() && maxSum > layer.Capacity {
		return nil, false
	}

	// Failure corrections: the real replay loop skips a failed
	// allocation's accesses and frees entirely, but the partition's
	// invariant half charged them (its recording fallback never fails).
	// Subtract the general-layer traffic tallied against each failed
	// allocation and the free-dispatch cycles of each skipped free.
	var adjReads, adjWrites uint64
	if run.failures > 0 {
		for k, failed := range run.failed {
			if failed {
				adjReads += part.recReads[k]
				adjWrites += part.recWrites[k]
			}
		}
	}
	genLayerInfo := h.Layer(genLayer)
	cycles := part.cycles + run.cycles -
		adjReads*uint64(genLayerInfo.ReadCycles) -
		adjWrites*uint64(genLayerInfo.WriteCycles) -
		run.skippedFrees*uint64(part.numFixed+1)

	r.counters = slices.Grow(r.counters[:0], h.NumLayers())[:h.NumLayers()]
	counters := r.counters
	for i := range counters {
		inv := part.counters[i]
		gen := run.counters[i]
		counters[i] = simheap.LayerCounters{
			Reads:     inv.Reads + gen.Reads,
			Writes:    inv.Writes + gen.Writes,
			PeakBytes: inv.PeakBytes,
		}
		if memhier.LayerID(i) == genLayer {
			counters[i].Reads -= adjReads
			counters[i].Writes -= adjWrites
			counters[i].PeakBytes = maxSum
		}
	}

	m := &Metrics{
		ConfigLabel: cfg.Label,
		Workload:    ct.Name,
		PerLayer:    make([]LayerMetrics, 0, h.NumLayers()),
	}
	var accesses uint64
	var footprint int64
	for i := range counters {
		m.PerLayer = append(m.PerLayer, LayerMetrics{
			Name:      h.Layer(memhier.LayerID(i)).Name,
			Reads:     counters[i].Reads,
			Writes:    counters[i].Writes,
			PeakBytes: counters[i].PeakBytes,
		})
		accesses += counters[i].Accesses()
		footprint += counters[i].PeakBytes
	}
	m.Accesses = accesses
	m.FootprintBytes = footprint
	m.EnergyNJ = simheap.EnergyOf(h, counters, cycles)
	m.Cycles = cycles
	m.Mallocs = part.mallocs - run.failures
	m.Frees = part.frees - run.skippedFrees
	m.Failures = run.failures
	m.PeakRequestedBytes = ct.PeakRequestedBytes
	return m, true
}

// hashOps is FNV-1a over the op words — the memo-key content hash of a
// recorded fallback sequence. Collisions are tolerated (PoolRun.MatchesOps
// verifies the full sequence before reuse), the hash only has to make
// them vanishingly rare.
func hashOps(ops []int64) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for _, op := range ops {
		v := uint64(op)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}
