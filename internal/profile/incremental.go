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
// with a seen general vector) into a composition with no simulation at
// all: additions over the layers and a merge of the two runs' change
// points.
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
// simulation counters, counts the ops that reach it, and reads the
// fixed-side peak on the general layer at each op boundary (closing one
// "gap"). Which ops reached it Partition reads afterwards from the
// synthetic addresses in the pointer table. It lives in the Replayer, so
// its buffers grow once per Replayer; Partition copies the change points
// out at their final length.
type recordingFallback struct {
	ctx   *simheap.Context
	layer memhier.LayerID

	ops  int    // recorded fallback ops so far
	live []bool // per recorded allocation: not yet freed

	// fSteps holds the closed gaps' maxima of the fixed-side reserved
	// bytes as change points: gap j closes at op j, the last one after
	// the final op.
	fSteps []gStep
}

// reset starts a recording on ctx's layer, keeping the buffers.
func (p *recordingFallback) reset(ctx *simheap.Context, layer memhier.LayerID) {
	fSteps := p.fSteps[:0]
	if mutant.Name == "recording-untruncated" {
		fSteps = p.fSteps
	}
	*p = recordingFallback{ctx: ctx, layer: layer, live: p.live[:0], fSteps: fSteps}
}

// boundary closes the open gap, the p.ops-th. Only fixed pools reserve
// on the partition's context, and its general layer's peak is reset at
// every boundary, so that peak is the open gap's maximum.
func (p *recordingFallback) boundary() {
	peak := p.ctx.Counters(p.layer).PeakBytes
	if n := len(p.fSteps); n == 0 || p.fSteps[n-1].bytes != peak {
		p.fSteps = append(p.fSteps, gStep{p.ops, peak})
	}
	if mutant.Name != "partition-no-gap-reset" {
		p.ctx.ResetPeak(p.layer)
	}
}

func (p *recordingFallback) Malloc(size int64) (alloc.Ptr, error) {
	p.boundary()
	p.ops++
	k := len(p.live)
	p.live = append(p.live, true)
	return alloc.Ptr{Layer: p.layer, Addr: recBase + uint64(k)*simheap.WordSize}, nil
}

func (p *recordingFallback) Free(ptr alloc.Ptr) error {
	p.boundary()
	p.ops++
	k := (ptr.Addr - recBase) / simheap.WordSize
	if ptr.Addr < recBase || k >= uint64(len(p.live)) || !p.live[k] {
		return fmt.Errorf("profile: recording fallback: free of unknown addr %#x", ptr.Addr)
	}
	p.live[k] = false
	return nil
}

// Partition is the fixed-side-invariant decomposition of one compiled
// trace under one fixed-pool signature: everything a partial replay
// needs except the candidate's general pool. It is immutable once built
// and shared read-only by all workers evaluating configurations with
// the same signature.
//
// It holds no copy of what the trace already gives back: the recorded
// ops are positions in the trace's alloc and free events (the flat
// view's ops, which any Replayer rebuilds from ct), so an op's size and
// dense ID, and the access words a failure correction subtracts, are
// read from the trace.
type Partition struct {
	ct       *trace.Compiled
	genLayer memhier.LayerID

	counters []simheap.LayerCounters // invariant per-layer counters
	cycles   uint64
	mallocs  uint64
	frees    uint64

	// ops holds the flat-view position of each op that reached the
	// fallback, in trace order; allocs counts its allocations.
	ops    []uint32
	allocs int

	// fSteps holds the fixed side's reserved-bytes maxima on genLayer over
	// the len(ops)+1 gaps as change points (see recordingFallback.fSteps).
	fSteps []gStep

	// opsHash is a content hash of the recorded ops (see hashOp) — the
	// pool-run memo key half that lets the same sequence recorded under
	// different fixed-pool signatures share one standalone general-pool
	// run.
	opsHash uint64

	// numFixed is the configuration's fixed-pool count; the composed
	// free-dispatch cost is numFixed+1 compute cycles, which failure
	// replay must subtract for each free the real run skips.
	numFixed int

	// sharesGen records whether any fixed pool reserves from the general
	// layer. Failure replay is exact only when false (the standalone pool
	// then sees the real run's exact reserve headroom).
	sharesGen bool
}

// Ops returns the number of recorded fallback ops a partial replay
// re-simulates.
func (p *Partition) Ops() int { return len(p.ops) }

// Events returns the compiled trace's event count the partition covers.
func (p *Partition) Events() int { return p.ct.Len() }

// SkippedEvents returns how many trace events a partial replay avoids
// re-simulating compared to a full replay.
func (p *Partition) SkippedEvents() int { return p.ct.Len() - len(p.ops) }

// OpsHash returns the content hash of the recorded fallback op sequence
// (FNV-1a over the op words, see hashOp). Equal hashes are a memo-probe
// filter, not a correctness guarantee: pool-run reuse additionally
// verifies the full sequence (see PoolRun.MatchesOps).
func (p *Partition) OpsHash() uint64 { return p.opsHash }

// MemBytes estimates the partition's retained heap footprint, the unit
// the session's size-aware cache bound accounts in. The trace it points
// into is the session's, not the partition's.
func (p *Partition) MemBytes() int64 {
	return int64(len(p.ops))*4 + int64(len(p.fSteps))*16 +
		int64(len(p.counters))*32 + 256
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

	if int64(ct.Allocs)+int64(ct.Frees) > math.MaxUint32 {
		return nil, fmt.Errorf("profile: %d alloc and free events overflow a partition's positions", ct.Allocs+ct.Frees)
	}
	p := &Partition{ct: ct, genLayer: genLayer, numFixed: len(cfg.Fixed)}
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
	// allocation, and a recorded one by its synthetic address: an op
	// reached the fallback iff its ID's pointer is synthetic. A free's
	// content word names the recorded allocation by that address.
	p.ops = make([]uint32, 0, rec.ops)
	hash := uint64(fnvOffset64)
	for j, op := range r.flat.ops {
		ptr := r.ptrs[op.id]
		if ptr.Addr < recBase {
			continue
		}
		p.ops = append(p.ops, uint32(j))
		if trace.ArgKind(op.arg) == trace.KindAlloc {
			hash = hashOp(hash, int64(ct.Arg(op.arg)))
		} else {
			hash = hashOp(hash, ^int64((ptr.Addr-recBase)/simheap.WordSize))
		}
	}
	p.allocs = len(rec.live)
	p.opsHash = hash
	p.counters = make([]simheap.LayerCounters, h.NumLayers())
	for i := range p.counters {
		p.counters[i] = ctx.Counters(memhier.LayerID(i))
	}
	p.cycles = ctx.Cycles()
	p.mallocs = m.Mallocs
	p.frees = m.Frees
	// The change points stay in the Replayer; the partition keeps a copy
	// at their final length.
	p.fSteps = slices.Clone(rec.fSteps)
	return p, nil
}

// PoolRun is one standalone general-pool replay of a recorded fallback
// op sequence: everything Compose needs to assemble full-run metrics
// without re-simulating. It depends only on the op sequence and the
// general pool's parameters — not on which partition recorded the
// sequence — so it is shareable (via the session's pool-run memo)
// across every partition that recorded the same positions of the trace.
// Immutable once built.
type PoolRun struct {
	// The replayed sequence: positions in ct's flat ops, shared with the
	// recording partition.
	ct  *trace.Compiled
	ops []uint32

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

// gStep is one change point of a level over a recorded op sequence: the
// level from index at onward until the next step. For a PoolRun's
// reserved bytes index j is the level after op j-1 (after the build for
// 0); for a Partition's gap maxima it is gap j, which op j closes.
type gStep struct {
	at    int
	bytes int64
}

// Ops returns the length of the replayed op sequence.
func (pr *PoolRun) Ops() int { return len(pr.ops) }

// Failures returns the allocation failures the standalone replay
// recorded.
func (pr *PoolRun) Failures() uint64 { return pr.failures }

// MatchesOps verifies the run's op sequence is the partition's — the
// collision-safety check behind the hash-keyed memo. The same positions
// in the same trace are the same content. A mismatch means a hash
// collision (or content-identical ops at other positions, which no
// shipped space records); the caller must replay instead of composing.
func (pr *PoolRun) MatchesOps(part *Partition) bool {
	return pr.ct == part.ct && slices.Equal(pr.ops, part.ops)
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
	ct, genLayer := part.ct, part.genLayer
	v := r.flat.of(ct)
	// The pointer table is keyed by dense ID, as in a full replay; a
	// failed allocation is not live, so its free is skipped.
	r.reset(ct.NumIDs)
	run := &PoolRun{ct: ct, ops: part.ops}
	// The change points collect in the Replayer's scratch and are copied
	// out at their final length.
	g := ctx.Counters(genLayer).ReservedBytes
	steps := append(r.steps[:0], gStep{0, g})
	k := 0 // recorded allocations so far
	for j, pos := range part.ops {
		op := v.ops[pos]
		if trace.ArgKind(op.arg) == trace.KindAlloc {
			ptr, err := pool.Malloc(int64(ct.Arg(op.arg)))
			switch {
			case err == nil:
				r.ptrs[op.id], r.live[op.id] = ptr, true
			case errors.Is(err, alloc.ErrOutOfMemory):
				if run.failed == nil {
					run.failed = make([]bool, part.allocs)
				}
				run.failed[k] = true
				run.failures++
				r.live[op.id] = false
			default:
				return nil, false
			}
			k++
		} else if !r.live[op.id] {
			run.skippedFrees++
		} else if err := pool.Free(r.ptrs[op.id]); err != nil {
			return nil, false
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

// peakSum returns max over j of f(j)+g(j) for two levels held as change
// points over the same indices, both starting at index 0: it walks the
// merged change points, so it costs O(len(f)+len(g)), not O(indices).
func peakSum(f, g []gStep) int64 {
	best := int64(math.MinInt64)
	i, k := 0, 0
	for {
		best = max(best, f[i].bytes+g[k].bytes)
		fNext, gNext := i+1 < len(f), k+1 < len(g)
		switch {
		case fNext && gNext && f[i+1].at == g[k+1].at:
			i, k = i+1, k+1
		case fNext && (!gNext || f[i+1].at < g[k+1].at):
			i++
		case gNext:
			k++
		default:
			return best
		}
	}
}

// Compose assembles full-run metrics from a partition's invariant half
// and a standalone PoolRun of its recorded op sequence — additions over
// the layers and the two runs' change points, no simulation. run must
// have been produced by PoolReplay on part's op sequence — the same
// positions in the same trace (the memo verifies this via MatchesOps) —
// and cfg must share
// part's fixed-pool signature with run's general-pool parameters. The
// result is bit-identical to a full fast-path Run. ok is false when
// composition cannot reproduce the full replay exactly: the composed
// peak overflows the general layer's capacity, or the run recorded
// allocation failures while a fixed pool shares the general layer (the
// standalone pool's failure points then diverge from the real run's).
func (r *Replayer) Compose(part *Partition, run *PoolRun, cfg alloc.Config, h *memhier.Hierarchy) (*Metrics, bool) {
	if run.failures > 0 && part.sharesGen {
		return nil, false
	}
	ct, genLayer := part.ct, part.genLayer
	fSteps := part.fSteps
	if mutant.Name == "compose-last-fstep-dropped" && len(fSteps) > 1 {
		fSteps = fSteps[:len(fSteps)-1]
	}
	maxSum := peakSum(fSteps, run.gSteps)
	if layer := h.Layer(genLayer); layer.Bounded() && maxSum > layer.Capacity {
		return nil, false
	}

	// Failure corrections: the real replay loop skips a failed
	// allocation's accesses and frees entirely, but the partition's
	// invariant half charged them (its recording fallback never fails).
	// Subtract the general-layer traffic the flat view tallies against
	// the dense ID of each failed allocation (the k-th recorded one of
	// this partition) and the free-dispatch cycles of each skipped free.
	var adjReads, adjWrites uint64
	if run.failures > 0 {
		v := r.flat.of(ct)
		k := 0
		for _, pos := range part.ops {
			op := v.ops[pos]
			if trace.ArgKind(op.arg) != trace.KindAlloc {
				continue
			}
			if run.failed[k] {
				adjReads += v.reads[op.id]
				adjWrites += v.writes[op.id]
			}
			k++
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

// FNV-1a's 64-bit offset basis and prime, for hashOp.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// hashOp folds one op word into h, FNV-1a over its eight little-endian
// bytes. A recorded sequence's content hash folds its op words, in order,
// into fnvOffset64: an allocation's word is its size, a free's is ^k for
// the k-th recorded allocation. Collisions are tolerated
// (PoolRun.MatchesOps verifies the full sequence before reuse); the hash
// only has to make them vanishingly rare.
func hashOp(h uint64, op int64) uint64 {
	v := uint64(op)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}
