package profile

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// referenceRun is the pre-compilation replay loop, kept verbatim as the
// behavioural oracle: sparse-ID maps for pointers and requested sizes,
// and footprint samples recomputed by summing every layer's reserved
// bytes. The compiled Replayer must produce byte-identical Metrics.
func referenceRun(tr *trace.Trace, cfg alloc.Config, h *memhier.Hierarchy, opts Options) (*Metrics, error) {
	ctx := simheap.NewContext(h)
	lw, err := NewReplayer().applyOptions(ctx, h, opts)
	if err != nil {
		return nil, err
	}
	a, err := cfg.Build(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("profile: building %s: %w", cfg.ID(), err)
	}
	m := &Metrics{
		ConfigID:    cfg.ID(),
		ConfigLabel: cfg.Label,
		Workload:    tr.Name,
	}

	ptrs := make(map[uint64]alloc.Ptr)
	reqSize := make(map[uint64]int64)
	var liveRequested, peakRequested int64

	sample := func(i int) {
		m.Series = append(m.Series, FootprintSample{
			Event:          i,
			ReservedBytes:  sumReserved(ctx, h),
			RequestedBytes: liveRequested,
		})
	}
	for i, e := range tr.Events {
		if opts.SampleEvery > 0 && i%opts.SampleEvery == 0 {
			sample(i)
		}
		switch e.Kind() {
		case trace.KindAlloc:
			liveRequested += e.Size()
			reqSize[e.ID()] = e.Size()
			if liveRequested > peakRequested {
				peakRequested = liveRequested
			}
			ptr, err := a.Malloc(e.Size())
			if err != nil {
				if errors.Is(err, alloc.ErrOutOfMemory) {
					m.Failures++
					continue
				}
				return nil, fmt.Errorf("profile: event %d: %w", i, err)
			}
			m.Mallocs++
			ptrs[e.ID()] = ptr
		case trace.KindFree:
			liveRequested -= reqSize[e.ID()]
			delete(reqSize, e.ID())
			ptr, ok := ptrs[e.ID()]
			if !ok {
				continue
			}
			if err := a.Free(ptr); err != nil {
				return nil, fmt.Errorf("profile: event %d: %w", i, err)
			}
			m.Frees++
			delete(ptrs, e.ID())
		case trace.KindAccess:
			ptr, ok := ptrs[e.ID()]
			if !ok {
				continue
			}
			if e.Reads() > 0 {
				ctx.Read(ptr.Layer, ptr.Addr, uint64(e.Reads()))
			}
			if e.Writes() > 0 {
				ctx.Write(ptr.Layer, ptr.Addr, uint64(e.Writes()))
			}
		case trace.KindTick:
			ctx.Compute(uint64(e.Cycles()))
		default:
			return nil, fmt.Errorf("profile: event %d: unknown kind %d", i, e.Kind())
		}
	}
	if opts.SampleEvery > 0 {
		sample(len(tr.Events))
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
	m.PeakRequestedBytes = peakRequested
	return m, nil
}

// sumReserved recomputes the instantaneous footprint the slow way,
// layer by layer — what sampling did before the context kept a running
// total.
func sumReserved(ctx *simheap.Context, h *memhier.Hierarchy) int64 {
	var total int64
	for i := 0; i < h.NumLayers(); i++ {
		total += ctx.Counters(memhier.LayerID(i)).ReservedBytes
	}
	return total
}

// presetConfigs are the three preset allocators the equivalence tests
// sweep.
func presetConfigs() []alloc.Config {
	return []alloc.Config{
		alloc.KingsleyConfig(memhier.LayerDRAM),
		alloc.LeaConfig(memhier.LayerDRAM),
		alloc.SimpleFirstFitConfig(memhier.LayerDRAM),
	}
}

// checkEquivalence replays tr through the reference loop and the compiled
// Replayer under every preset and requires identical Metrics.
func checkEquivalence(t *testing.T, tr *trace.Trace, opts Options) {
	t.Helper()
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	for _, cfg := range presetConfigs() {
		want, err := referenceRun(tr, cfg, h, opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", cfg.Label, err)
		}
		got, err := NewReplayer().Run(ct, cfg, h, opts)
		if err != nil {
			t.Fatalf("%s: replayer: %v", cfg.Label, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: compiled replay diverges from reference\nwant %+v\ngot  %+v", cfg.Label, want, got)
		}
	}
}

func TestReplayerMatchesReferenceEasyport(t *testing.T) {
	p := workload.DefaultEasyportParams()
	p.Packets = 800
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, tr, Options{SampleEvery: 200})
	checkEquivalence(t, tr, Options{}) // the flat loop
}

func TestReplayerMatchesReferenceVTC(t *testing.T) {
	tr, err := workload.DefaultVTCParams().Generate()
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, tr, Options{SampleEvery: 500})
	checkEquivalence(t, tr, Options{}) // the flat loop
}

// oomTrace builds a synthetic trace whose large allocation overflows a
// budget-capped pool: the replay must survive the failed allocation, the
// accesses to it and its free.
func oomTrace() *trace.Trace {
	b := trace.NewBuilder("oomtest")
	small := b.Alloc(512)
	b.Access(small, 8, 4)
	big := b.Alloc(8 * 1024) // exceeds the pool budget below
	b.Access(big, 16, 16)    // access to a failed allocation: skipped
	b.Tick(50)
	b.Free(big) // free of a failed allocation: skipped
	mid := b.Alloc(1024)
	b.Access(mid, 4, 4)
	b.Free(small)
	b.FreeAll()
	return b.Build()
}

// oomConfig caps the general pool so oomTrace's big allocation fails.
func oomConfig() alloc.Config {
	cfg := alloc.SimpleFirstFitConfig(memhier.LayerDRAM)
	cfg.General.ChunkBytes = 2 * 1024
	cfg.General.MaxBytes = 4 * 1024
	return cfg
}

// TestReplayerMatchesReferenceOOM runs the per-event loop (samples on)
// and the flat loop (no options), which must leave the failed
// allocation's accesses uncharged as well.
func TestReplayerMatchesReferenceOOM(t *testing.T) {
	tr := oomTrace()
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	cfg := oomConfig()
	for _, opts := range []Options{{SampleEvery: 2}, {}} {
		want, err := referenceRun(tr, cfg, h, opts)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if want.Failures == 0 {
			t.Fatal("oom trace did not trigger an allocation failure")
		}
		got, err := NewReplayer().Run(ct, cfg, h, opts)
		if err != nil {
			t.Fatalf("replayer: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%+v: compiled replay diverges on failed allocations\nwant %+v\ngot  %+v", opts, want, got)
		}
	}
}

// TestFlatReplayMatchesReferenceWide covers the flat loop's per-ID
// totals where they outgrow 32 bits: one allocation takes three accesses
// of 2^32-1 reads and writes each, and the flat loop charges their sum
// in one call.
func TestFlatReplayMatchesReferenceWide(t *testing.T) {
	b := trace.NewBuilder("wide")
	id := b.Alloc(4096)
	for i := 0; i < 3; i++ {
		b.Access(id, 1<<32-1, 1<<32-1)
		b.Tick(1<<32 - 1)
	}
	b.Free(id)
	tr := b.Build()
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	for _, cfg := range presetConfigs() {
		want, err := referenceRun(tr, cfg, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want.Accesses < 6*(1<<32-1) {
			t.Fatalf("%s: %d accesses, want the wide totals charged", cfg.Label, want.Accesses)
		}
		got, err := NewReplayer().Run(ct, cfg, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: flat replay diverges on wide totals\nwant %+v\ngot  %+v", cfg.Label, want, got)
		}
	}
}

// TestSeriesMatchesPerLayerRecompute pins the sampling optimisation: the
// Series values produced from the context's running reserved-bytes total
// must equal a per-layer recomputation at every sample point.
func TestSeriesMatchesPerLayerRecompute(t *testing.T) {
	p := workload.DefaultSyntheticParams()
	p.Ops = 2000
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	cfg := alloc.LeaConfig(memhier.LayerDRAM)
	opts := Options{SampleEvery: 50}
	want, err := referenceRun(tr, cfg, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewReplayer().Run(ct, cfg, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) == 0 {
		t.Fatal("no samples collected")
	}
	if !reflect.DeepEqual(want.Series, got.Series) {
		t.Errorf("series diverges\nwant %+v\ngot  %+v", want.Series, got.Series)
	}
}

// oomConfigs are capacity-failing configurations for the Easyport
// trace: a scratchpad frame pool that overflows the layer (its mallocs
// fall back to the general pool) over a general pool capped by MaxBytes,
// and a capped general pool alone. Both fail some allocations outright.
func oomConfigs() []alloc.Config {
	capped := alloc.LeaConfig(memhier.LayerDRAM).General
	capped.ChunkBytes = 4 * 1024
	capped.MaxBytes = 24 * 1024
	return []alloc.Config{
		{
			Label: "oom/sp-frames",
			Fixed: []alloc.FixedConfig{{
				SlotBytes: 1500, MatchLo: 1500, MatchHi: 1500, Layer: memhier.LayerScratchpad,
				Order: alloc.LIFO, Links: alloc.SingleLink,
				Growth: alloc.GrowFixedChunk, ChunkSlots: 8,
			}},
			General: capped,
		},
		{Label: "oom/capped", General: capped},
	}
}

// TestReplaySteadyStateZeroAllocs is the hot-path guard: once the
// allocator and the Replayer's scratch tables are warm, replaying a
// compiled trace performs no Go heap allocations at all. The trace ends
// with FreeAll, so the same allocator instance can replay it repeatedly.
// The capacity-failing configurations hold the out-of-memory path to
// the same guarantee: every failed malloc, and every fixed-pool overflow
// that falls back, must allocate nothing either. The flat loop is held to
// it too, also when one Replayer alternates between two traces. So is
// logged replay: the Replayer's log writer, reset onto a reused sink,
// encodes and emits every record and block without allocating.
func TestReplaySteadyStateZeroAllocs(t *testing.T) {
	p := workload.DefaultEasyportParams()
	p.Packets = 200
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed, p.Packets = 2, 300
	tr, err = p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	other, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	oom := oomConfigs()
	for i, cfg := range append(presetConfigs(), oom...) {
		mustFail := i >= len(presetConfigs())
		ctx := simheap.NewContext(h)
		a, err := cfg.Build(ctx, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
		r := NewReplayer()
		// Warm pass: arenas grow, tables and scratch size themselves.
		r.reset(ct.NumIDs)
		var warm Metrics
		if err := r.replay(ct, a, ctx, &warm, 0, nil); err != nil {
			t.Fatalf("%s: warm replay: %v", cfg.Label, err)
		}
		avg := testing.AllocsPerRun(5, func() {
			r.reset(ct.NumIDs)
			var m Metrics
			if err := r.replay(ct, a, ctx, &m, 0, nil); err != nil {
				t.Errorf("%s: replay: %v", cfg.Label, err)
			}
			if mustFail && m.Failures == 0 {
				t.Errorf("%s: replay recorded no allocation failure", cfg.Label)
			}
		})
		if avg != 0 {
			t.Errorf("%s: steady-state replay allocates %.1f times per run, want 0", cfg.Label, avg)
		}

		// The flat loop, and the flat loop alternating two traces on one
		// Replayer: once its view has grown to both, rebuilding it for
		// the other trace allocates nothing.
		flat := func(ct *trace.Compiled) {
			r.reset(ct.NumIDs)
			var m Metrics
			if err := r.replayFlat(ct, a, ctx, &m); err != nil {
				t.Errorf("%s: flat replay: %v", cfg.Label, err)
			}
			if mustFail && m.Failures == 0 {
				t.Errorf("%s: flat replay recorded no allocation failure", cfg.Label)
			}
		}
		flat(ct)
		if avg := testing.AllocsPerRun(5, func() { flat(ct) }); avg != 0 {
			t.Errorf("%s: steady-state flat replay allocates %.1f times per run, want 0", cfg.Label, avg)
		}
		flat(other)
		if avg := testing.AllocsPerRun(5, func() { flat(ct); flat(other) }); avg != 0 {
			t.Errorf("%s: flat replay alternating two traces allocates %.1f times per pair, want 0", cfg.Label, avg)
		}

		var sink bytes.Buffer
		logged := func() {
			sink.Reset()
			lw := r.logTo(&sink)
			ctx.SetTracer(lw)
			r.reset(ct.NumIDs)
			var m Metrics
			if err := r.replay(ct, a, ctx, &m, 0, lw); err != nil {
				t.Errorf("%s: logged replay: %v", cfg.Label, err)
			}
			if err := lw.Flush(); err != nil {
				t.Errorf("%s: flushing log: %v", cfg.Label, err)
			}
		}
		logged() // warm the log writer and the sink
		if avg := testing.AllocsPerRun(5, logged); avg != 0 {
			t.Errorf("%s: steady-state logged replay allocates %.1f times per run, want 0", cfg.Label, avg)
		}
		if sink.Len() == 0 {
			t.Errorf("%s: logged replay wrote no log", cfg.Label)
		}
	}

	// Warm PoolReplay: the standalone general pool a partial replay
	// builds per run draws every Block from the Replayer's stash and hands
	// them back when the run ends, so a warm pass over a best-fit ×
	// address-ordered pool (both free-list indexes live) allocates no
	// Block: the stash neither grows nor shrinks. Without coalescing no
	// merge hands a Block back early, so a Block the run end failed to
	// reclaim would empty the stash.
	cfg := alloc.SimpleFirstFitConfig(memhier.LayerDRAM)
	cfg.General.Fit = alloc.BestFit
	cfg.General.Coalesce = alloc.CoalesceNever
	r := NewReplayer()
	part, err := r.Partition(ct, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	poolReplay := func() {
		if _, ok := r.PoolReplay(part, cfg, h); !ok {
			t.Fatalf("%s: pool replay declined", cfg.ID())
		}
	}
	poolReplay()
	stashed := r.blocks.Len()
	for i := 0; i < 3; i++ {
		poolReplay()
	}
	if n := r.blocks.Len(); n != stashed || n == 0 {
		t.Errorf("warm pool replay moved the Block stash from %d to %d", stashed, n)
	}

	// Long next-fit walks: the order index they build takes its nodes
	// from the pool's slab. A warm Run, whose new pool draws the slab
	// from the Replayer's stash, builds the index again and must
	// allocate far less than the slab itself (thousands of 56-byte
	// nodes). Replaying the same allocator again allocates nothing: its
	// later passes find whole free arenas for the large requests, so
	// their walks are short and the index built in the first pass is
	// dropped, its nodes kept for the next build. Coalescing returns the
	// pool to one state after each pass; without it every pass splits
	// the free blocks further, and more blocks need more nodes.
	lct, err := trace.Compile(longWalkTrace())
	if err != nil {
		t.Fatal(err)
	}
	cfg = longWalkConfig(alloc.NextFit, alloc.LIFO, alloc.SingleLink, alloc.CoalesceImmediate)
	ctx := simheap.NewContext(h)
	a, err := cfg.Build(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	r = NewReplayer()
	pass := func() {
		r.reset(lct.NumIDs)
		var m Metrics
		if err := r.replayFlat(lct, a, ctx, &m); err != nil {
			t.Errorf("%s: flat replay: %v", cfg.ID(), err)
		}
	}
	pass()
	if n := a.Fallback().(*alloc.GeneralPool).FitIndexedBins(); n != 1 {
		t.Errorf("%s: the order index answers searches on %d bins after the first pass, want 1", cfg.ID(), n)
	}
	if avg := testing.AllocsPerRun(5, pass); avg != 0 {
		t.Errorf("%s: steady-state long-walk replay allocates %.1f times per run, want 0", cfg.ID(), avg)
	}
	run := func() {
		if _, err := r.Run(lct, cfg, h, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("%s: a warm Run allocates %d bytes, want at most 64 KiB", cfg.ID(), n)
	}
}

// TestReplayTelemetryZeroAllocs extends the hot-path guard to the
// instrumented path: a Replayer with a telemetry shard attached — the
// exact shape core.Runner workers use — must still replay a warm
// compiled trace with zero heap allocations, ObserveSim included.
func TestReplayTelemetryZeroAllocs(t *testing.T) {
	p := workload.DefaultEasyportParams()
	p.Packets = 200
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	col := telemetry.NewCollector(1)
	for _, cfg := range presetConfigs() {
		ctx := simheap.NewContext(h)
		a, err := cfg.Build(ctx, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
		r := NewReplayer()
		r.Shard = col.Shard(0)
		r.reset(ct.NumIDs)
		var warm Metrics
		if err := r.replay(ct, a, ctx, &warm, 0, nil); err != nil {
			t.Fatalf("%s: warm replay: %v", cfg.Label, err)
		}
		avg := testing.AllocsPerRun(5, func() {
			start := time.Now()
			r.reset(ct.NumIDs)
			var m Metrics
			if err := r.replay(ct, a, ctx, &m, 0, nil); err != nil {
				t.Errorf("%s: replay: %v", cfg.Label, err)
			}
			r.Shard.ObserveSim(time.Since(start), ct.Len())
		})
		if avg != 0 {
			t.Errorf("%s: instrumented replay allocates %.1f times per run, want 0", cfg.Label, avg)
		}
	}
	if s := col.Snapshot(); s.Sims == 0 || s.Events == 0 {
		t.Fatalf("telemetry recorded nothing: %+v", s)
	}
}

// TestReplaySpansZeroAllocs proves the flight recorder preserves the
// replay hot path's zero-allocation guarantee: a full Run with both a
// telemetry shard and a span ring attached performs no heap allocations
// in steady state beyond the Metrics result itself — so the per-event
// loop and the span Record stay allocation-free.
func TestReplaySpansZeroAllocs(t *testing.T) {
	p := workload.DefaultEasyportParams()
	p.Packets = 200
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	col := telemetry.NewCollector(1)
	rec := span.NewRecorder(1, 1024)
	for _, cfg := range presetConfigs() {
		ctx := simheap.NewContext(h)
		a, err := cfg.Build(ctx, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
		r := NewReplayer()
		r.Shard = col.Shard(0)
		r.Spans = rec.Ring(0)
		r.reset(ct.NumIDs)
		var warm Metrics
		if err := r.replay(ct, a, ctx, &warm, 0, nil); err != nil {
			t.Fatalf("%s: warm replay: %v", cfg.Label, err)
		}
		avg := testing.AllocsPerRun(5, func() {
			start := time.Now()
			r.reset(ct.NumIDs)
			var m Metrics
			if err := r.replay(ct, a, ctx, &m, 0, nil); err != nil {
				t.Errorf("%s: replay: %v", cfg.Label, err)
			}
			r.Shard.ObserveSim(time.Since(start), ct.Len())
			r.Spans.Since(span.StageFullSim, start, int64(ct.Len()))
		})
		if avg != 0 {
			t.Errorf("%s: span-instrumented replay allocates %.1f times per run, want 0", cfg.Label, avg)
		}
	}
	if n := rec.Ring(0).Len(); n == 0 {
		t.Fatal("span ring recorded nothing")
	}
	if snap := rec.Snapshot(); snap[span.StageFullSim].Count == 0 {
		t.Fatalf("full-sim stage empty: %+v", snap)
	}
}
