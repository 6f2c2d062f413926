package profile

import (
	"errors"
	"fmt"
	"io"
	"time"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
)

// Replayer replays compiled traces against allocator configurations. Its
// scratch state — a flat pointer table indexed by dense allocation ID —
// is allocated once and reused across runs, so the steady-state replay
// loop performs no Go heap allocations per event. A Replayer is not safe
// for concurrent use; explorations run one per worker.
type Replayer struct {
	// Shard, when non-nil, receives per-run telemetry: simulation wall
	// time and events replayed. Recording is a few uncontended atomic
	// adds outside the replay loop, so the zero-alloc guarantee holds
	// with telemetry enabled.
	Shard *telemetry.Shard

	// Spans, when non-nil, is this worker's flight-recorder ring: every
	// full run, partial run and partition build lands one typed span.
	// Recording shares the Shard's timing reads and is itself
	// allocation-free, so the zero-alloc guarantee holds with the
	// recorder attached too.
	Spans *span.Ring

	ptrs []alloc.Ptr // dense ID -> payload pointer
	live []bool      // dense ID -> allocation currently live (not failed)

	genPtrs []alloc.Ptr // partial-replay scratch: recorded-alloc pointers

	// blocks recycles the general pools' Blocks from one run to the next;
	// every run reclaims its pool's Blocks when it ends.
	blocks alloc.BlockStash

	log *logWriter // kept across runs and reset onto each Options.LogWriter
}

// NewReplayer returns a Replayer with empty scratch state. The first Run
// sizes the tables to the trace's dense ID space.
func NewReplayer() *Replayer {
	return &Replayer{}
}

// Reset prepares the scratch tables for a trace with n dense IDs,
// reusing the packed pointer and live tables when capacity suffices.
// Run calls it automatically; checkpoint restores and partial replays
// (see RunPartial) call it directly to reuse a warmed Replayer without
// reallocating.
func (r *Replayer) Reset(n int) { r.reset(n) }

// reset prepares the scratch tables for a trace with n dense IDs.
func (r *Replayer) reset(n int) {
	if cap(r.ptrs) < n {
		r.ptrs = make([]alloc.Ptr, n)
		r.live = make([]bool, n)
		return
	}
	r.ptrs = r.ptrs[:n]
	r.live = r.live[:n]
	for i := range r.ptrs {
		r.ptrs[i] = alloc.Ptr{}
		r.live[i] = false
	}
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
	for layerName, spec := range opts.RowBuffers {
		id, ok := h.ByName(layerName)
		if !ok {
			return nil, fmt.Errorf("profile: row buffer on unknown layer %q", layerName)
		}
		rb, err := memhier.NewRowBuffer(spec.RowWords, spec.Banks)
		if err != nil {
			return nil, fmt.Errorf("profile: row buffer for %s: %w", layerName, err)
		}
		if err := ctx.AttachRowBuffer(id, rb); err != nil {
			return nil, err
		}
	}
	return lw, nil
}

// Run profiles cfg against the compiled trace ct on hierarchy h. The
// compiled trace is shared read-only; the Replayer's scratch state is
// reset, not reallocated, between runs.
func (r *Replayer) Run(ct *trace.Compiled, cfg alloc.Config, h *memhier.Hierarchy, opts Options) (*Metrics, error) {
	var start time.Time
	if r.Shard != nil || r.Spans != nil {
		start = time.Now()
	}
	ctx := simheap.NewContext(h)
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
		ConfigID:    cfg.ID(),
		ConfigLabel: cfg.Label,
		Workload:    ct.Name,
		PerLayer:    make([]LayerMetrics, 0, h.NumLayers()),
	}
	if opts.SampleEvery > 0 {
		m.Series = make([]FootprintSample, 0, ct.Len()/opts.SampleEvery+2)
	}
	r.reset(ct.NumIDs)
	if err := r.replay(ct, a, ctx, m, opts.SampleEvery, lw); err != nil {
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
	if r.Shard != nil {
		r.Shard.ObserveSim(time.Since(start), ct.Len())
	}
	r.Spans.Since(span.StageFullSim, start, int64(ct.Len()))
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
			if err != nil {
				if errors.Is(err, alloc.ErrOutOfMemory) {
					m.Failures++
					continue
				}
				return fmt.Errorf("profile: event %d: %w", i, err)
			}
			m.Mallocs++
			id := ids.At(i)
			r.ptrs[id] = ptr
			r.live[id] = true
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
