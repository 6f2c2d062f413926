package profile

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/mutant"
	"dmexplore/internal/simheap"
	"dmexplore/internal/trace"
)

// Replayer replays compiled traces against allocator configurations. Its
// scratch state — a flat pointer table indexed by dense allocation ID,
// and the flat view of the last trace it ran — is allocated once and
// reused across runs, so the steady-state replay loop performs no Go
// heap allocations per event.
//
// A run under the flat cost model with no samples and no log takes the
// flat loop (replayFlat): it visits only the alloc and free events and
// charges each successful allocation its ID's lifetime access words and
// the whole trace's tick cycles in one sum, with a bit-identical result
// (DESIGN.md §17). Every other run takes the per-event loop (replay).
// A Replayer is not safe for concurrent use; explorations run one per
// worker, taken warm from GetReplayer's pool and given back after.
type Replayer struct {
	ptrs []alloc.Ptr // dense ID -> payload pointer
	live []bool      // dense ID -> allocation currently live (not failed)

	steps    []gStep                 // partial-replay scratch: reserved-bytes change points
	counters []simheap.LayerCounters // composition scratch: the composed counters

	flat flatView // the flat loop's view of the last trace it ran

	// blocks recycles what each run's allocator is made of, and ctx is
	// the context every run resets and charges: a warm run builds both
	// without allocating. Every run reclaims its allocator when it ends.
	blocks alloc.BlockStash
	ctx    simheap.Context

	log *logWriter // kept across runs and reset onto each Options.LogWriter

	rec recordingFallback // partition scratch: the fallback's liveness and gap maxima
}

// NewReplayer returns a Replayer with empty scratch state. The first Run
// sizes the tables to the trace's dense ID space.
func NewReplayer() *Replayer {
	return &Replayer{}
}

// warm is the process-wide pool of Replayers that GetReplayer and
// PutReplayer pass between sessions: a mutex-guarded free list, not a
// sync.Pool, because a sync.Pool empties on every GC and generating a
// trace forces several. It holds at most GOMAXPROCS Replayers.
var warm struct {
	mu   sync.Mutex
	free []*Replayer
}

// GetReplayer returns a Replayer from the process-wide pool, its scratch
// tables already sized by an earlier session, or a new one when the pool
// is empty. Give it back with PutReplayer when done.
func GetReplayer() *Replayer {
	warm.mu.Lock()
	defer warm.mu.Unlock()
	n := len(warm.free)
	if n == 0 {
		return NewReplayer()
	}
	r := warm.free[n-1]
	warm.free[n-1] = nil
	warm.free = warm.free[:n-1]
	return r
}

// PutReplayer gives r back to the pool, which drops it when it already
// holds GOMAXPROCS Replayers. r keeps the capacity of its scratch tables
// but drops the log sink and the trace its flat view describes: a pooled
// Replayer keeps no job's trace alive, and a later trace allocated at the
// same address cannot match the stale view. r must not be used after
// PutReplayer.
func PutReplayer(r *Replayer) {
	if r.log != nil {
		r.log.blk.Reset(nil)
	}
	if mutant.Name != "pooled-trace-kept" {
		r.flat.ct = nil
	}
	warm.mu.Lock()
	defer warm.mu.Unlock()
	if len(warm.free) < runtime.GOMAXPROCS(0) {
		warm.free = append(warm.free, r)
	}
}

// reset sizes the scratch tables for a trace with n dense IDs, reusing
// them when capacity suffices. It does not clear them: every dense ID
// has exactly one alloc event, replayed before its free or accesses, and
// both replay loops write the ID's pointer and liveness at that alloc,
// Ptr{} and false when it fails.
func (r *Replayer) reset(n int) {
	if cap(r.ptrs) < n {
		r.ptrs = make([]alloc.Ptr, n)
		r.live = make([]bool, n)
		return
	}
	r.ptrs = r.ptrs[:n]
	r.live = r.live[:n]
}

// context returns the Replayer's context reset onto h for a new run.
func (r *Replayer) context(h *memhier.Hierarchy) *simheap.Context {
	r.ctx.Reset(h)
	return &r.ctx
}

// logTo returns the Replayer's log writer started on a new log to w.
// The writer and its block buffer live as long as the Replayer, so a warm
// logged run allocates nothing for logging.
func (r *Replayer) logTo(w io.Writer) *logWriter {
	if r.log == nil {
		r.log = newLogWriter(w)
	} else {
		r.log.reset(w)
	}
	return r.log
}

// applyOptions attaches the run options' models to a fresh context and
// returns the log writer, if any: the Replayer's own, reset onto
// opts.LogWriter.
func (r *Replayer) applyOptions(ctx *simheap.Context, h *memhier.Hierarchy, opts Options) (*logWriter, error) {
	var lw *logWriter
	if opts.LogWriter != nil {
		if n := h.NumLayers(); n > logMaxLayers+1 {
			return nil, fmt.Errorf("profile: the access log names at most %d layers, hierarchy has %d", logMaxLayers+1, n)
		}
		lw = r.logTo(opts.LogWriter)
		ctx.SetTracer(lw)
	}
	for layerName, spec := range opts.Caches {
		id, ok := h.ByName(layerName)
		if !ok {
			return nil, fmt.Errorf("profile: cache on unknown layer %q", layerName)
		}
		c, err := memhier.NewCache(spec.SizeWords, spec.LineWords, spec.Ways)
		if err != nil {
			return nil, fmt.Errorf("profile: cache for %s: %w", layerName, err)
		}
		if err := ctx.AttachCache(id, c); err != nil {
			return nil, err
		}
	}
	return lw, nil
}

// Run profiles cfg against the compiled trace ct on hierarchy h. The
// compiled trace is shared read-only; the Replayer's scratch state is
// reset, not reallocated, between runs.
func (r *Replayer) Run(ct *trace.Compiled, cfg alloc.Config, h *memhier.Hierarchy, opts Options) (*Metrics, error) {
	ctx := r.context(h)
	lw, err := r.applyOptions(ctx, h, opts)
	if err != nil {
		return nil, err
	}
	if lw != nil {
		defer lw.blk.Reset(nil) // drop the caller's sink once the run is over
	}
	defer r.blocks.Reclaim()
	a, err := cfg.Build(ctx, &r.blocks)
	if err != nil {
		return nil, fmt.Errorf("profile: building %s: %w", cfg.ID(), err)
	}

	m := &Metrics{
		ConfigLabel: cfg.Label,
		Workload:    ct.Name,
		PerLayer:    make([]LayerMetrics, 0, h.NumLayers()),
	}
	if opts.SampleEvery > 0 {
		m.Series = make([]FootprintSample, 0, ct.Len()/opts.SampleEvery+2)
	}
	r.reset(ct.NumIDs)
	if ctx.Flat() && opts.SampleEvery == 0 && lw == nil {
		err = r.replayFlat(ct, a, ctx, m)
	} else {
		err = r.replay(ct, a, ctx, m, opts.SampleEvery, lw)
	}
	if err != nil {
		return nil, err
	}

	if lw != nil {
		if err := lw.Flush(); err != nil {
			return nil, fmt.Errorf("profile: flushing log: %w", err)
		}
	}
	for i := 0; i < h.NumLayers(); i++ {
		c := ctx.Counters(memhier.LayerID(i))
		m.PerLayer = append(m.PerLayer, LayerMetrics{
			Name:      h.Layer(memhier.LayerID(i)).Name,
			Reads:     c.Reads,
			Writes:    c.Writes,
			PeakBytes: c.PeakBytes,
		})
	}
	m.Accesses = ctx.TotalAccesses()
	m.FootprintBytes = ctx.TotalPeakBytes()
	m.EnergyNJ = ctx.Energy()
	m.Cycles = ctx.Cycles()
	m.PeakRequestedBytes = ct.PeakRequestedBytes
	return m, nil
}

// logErrCheckMask throttles the log writer's deferred-error poll to one
// branch per 64Ki events: a dead log file stops a multi-gigabyte emit
// within a bounded window instead of at the final Flush, and the check
// stays invisible on the hot path.
const logErrCheckMask = 1<<16 - 1

// replay is the steady-state hot loop: every per-event branch works on
// flat pre-sized state, and footprint samples read the context's running
// reserved-bytes total instead of looping over layers. The loop streams
// the compiled trace's columnar slabs — the kind in each argument word
// drives the dispatch and each arm loads the ID only when its kind has
// one.
func (r *Replayer) replay(ct *trace.Compiled, a alloc.Allocator, ctx *simheap.Context, m *Metrics, sampleEvery int, lw *logWriter) error {
	args, ids := ct.Slabs()
	var liveRequested int64
	for i, arg := range args {
		if lw != nil && i&logErrCheckMask == logErrCheckMask {
			if err := lw.Err(); err != nil {
				return fmt.Errorf("profile: writing log (event %d): %w", i, err)
			}
		}
		if sampleEvery > 0 && i%sampleEvery == 0 {
			m.Series = append(m.Series, FootprintSample{
				Event:          i,
				ReservedBytes:  ctx.TotalReservedBytes(),
				RequestedBytes: liveRequested,
			})
		}
		switch trace.ArgKind(arg) {
		case trace.KindAlloc:
			size := int64(ct.Arg(arg))
			liveRequested += size
			ptr, err := a.Malloc(size)
			id := ids.At(i)
			if err != nil {
				if mutant.Name != "failed-ptr-kept" {
					r.ptrs[id], r.live[id] = alloc.Ptr{}, false
				}
				if errors.Is(err, alloc.ErrOutOfMemory) {
					m.Failures++
					continue
				}
				return fmt.Errorf("profile: event %d: %w", i, err)
			}
			r.ptrs[id], r.live[id] = ptr, true
			m.Mallocs++
		case trace.KindFree:
			liveRequested -= int64(ct.Arg(arg))
			id := ids.At(i)
			if !r.live[id] {
				// The allocation failed; nothing to free.
				continue
			}
			r.live[id] = false
			if err := a.Free(r.ptrs[id]); err != nil {
				return fmt.Errorf("profile: event %d: %w", i, err)
			}
			m.Frees++
		case trace.KindAccess:
			id := ids.At(i)
			if !r.live[id] {
				continue
			}
			ptr := r.ptrs[id]
			reads, writes := ct.AccessArgs(arg)
			if reads > 0 {
				ctx.Read(ptr.Layer, ptr.Addr, reads)
			}
			if writes > 0 {
				ctx.Write(ptr.Layer, ptr.Addr, writes)
			}
		case trace.KindTick:
			ctx.Compute(ct.Arg(arg))
		}
	}
	if sampleEvery > 0 {
		m.Series = append(m.Series, FootprintSample{
			Event:          ct.Len(),
			ReservedBytes:  ctx.TotalReservedBytes(),
			RequestedBytes: liveRequested,
		})
	}
	return nil
}

// flatView is what the flat loop reads of one compiled trace: its alloc
// and free events in trace order, each dense ID's lifetime access words
// and the trace's total tick cycles. It lives in the Replayer, not in the
// shared trace, and is rebuilt in place when the Replayer moves to
// another trace or comes back from the pool (PutReplayer forgets the
// trace), so a warm Replayer builds it without allocating.
type flatView struct {
	ct     *trace.Compiled // the trace the view describes; nil before the first build
	ops    []flatOp        // the alloc and free events, in trace order
	reads  []uint64        // dense ID -> word reads of all its accesses
	writes []uint64        // dense ID -> word writes of all its accesses
	ticks  uint64          // cycles of all tick events
}

// flatOp is one alloc or free event: its slab argument and dense ID.
type flatOp struct {
	arg, id uint32
}

// of returns the view of ct, building it unless it already describes ct.
// A compiled trace is immutable, and the view holds ct, so ct's address
// cannot be reused by another trace while the view names it.
func (v *flatView) of(ct *trace.Compiled) *flatView {
	if v.ct == ct {
		return v
	}
	v.ct = ct
	v.ops = slices.Grow(v.ops[:0], ct.Allocs+ct.Frees)
	v.reads = zeroed(v.reads, ct.NumIDs)
	v.writes = zeroed(v.writes, ct.NumIDs)
	v.ticks = 0
	args, ids := ct.Slabs()
	for i, arg := range args {
		switch trace.ArgKind(arg) {
		case trace.KindAlloc, trace.KindFree:
			v.ops = append(v.ops, flatOp{arg: arg, id: ids.At(i)})
		case trace.KindAccess:
			id := ids.At(i)
			reads, writes := ct.AccessArgs(arg)
			v.reads[id] += reads
			v.writes[id] += writes
		case trace.KindTick:
			v.ticks += ct.Arg(arg)
		}
	}
	return v
}

// zeroed returns s resized to n zeroes, reusing its array when it can.
func zeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// position returns the trace index of the view's j-th op, for error
// messages.
func (v *flatView) position(j int) int {
	args, _ := v.ct.Slabs()
	for i, arg := range args {
		if k := trace.ArgKind(arg); k == trace.KindAlloc || k == trace.KindFree {
			if j == 0 {
				return i
			}
			j--
		}
	}
	return len(args)
}

// replayFlat is the flat loop: the per-event loop's result for a run
// under the flat cost model with no samples and no log, from the alloc
// and free events alone. Under that model a charge adds to uint64 sums
// that do not depend on the address or on when it is made, and
// trace.Compile guarantees that every access hits a live ID that is
// never reused. So charging an ID's accesses in one Read and one Write
// when its allocation succeeds, and no accesses for an ID whose
// allocation failed, leaves the same counters and cycles as charging
// them event by event; so does adding every tick's cycles at once.
func (r *Replayer) replayFlat(ct *trace.Compiled, a alloc.Allocator, ctx *simheap.Context, m *Metrics) error {
	v := r.flat.of(ct)
	for j, op := range v.ops {
		if trace.ArgKind(op.arg) == trace.KindAlloc {
			ptr, err := a.Malloc(int64(ct.Arg(op.arg)))
			if err != nil {
				if mutant.Name != "failed-ptr-kept" {
					r.ptrs[op.id], r.live[op.id] = alloc.Ptr{}, false
				}
				if errors.Is(err, alloc.ErrOutOfMemory) {
					m.Failures++
					if mutant.Name == "flat-failed-charged" {
						ctx.Read(ptr.Layer, ptr.Addr, v.reads[op.id])
					}
					continue
				}
				return fmt.Errorf("profile: event %d: %w", v.position(j), err)
			}
			r.ptrs[op.id], r.live[op.id] = ptr, true
			m.Mallocs++
			ctx.Read(ptr.Layer, ptr.Addr, v.reads[op.id])
			ctx.Write(ptr.Layer, ptr.Addr, v.writes[op.id])
			continue
		}
		if !r.live[op.id] {
			continue // the allocation failed; nothing to free
		}
		r.live[op.id] = false
		if err := a.Free(r.ptrs[op.id]); err != nil {
			return fmt.Errorf("profile: event %d: %w", v.position(j), err)
		}
		m.Frees++
	}
	ctx.Compute(v.ticks)
	return nil
}
