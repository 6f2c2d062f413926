package simheap

import (
	"errors"
	"testing"
	"testing/quick"

	"dmexplore/internal/memhier"
)

func testHier(t *testing.T) *memhier.Hierarchy {
	t.Helper()
	h, err := memhier.New(
		memhier.Layer{Name: "sp", Capacity: 1024, ReadEnergy: 0.5, WriteEnergy: 0.6, ReadCycles: 1, WriteCycles: 1},
		memhier.Layer{Name: "dram", ReadEnergy: 8, WriteEnergy: 9, ReadCycles: 16, WriteCycles: 18},
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestContextAccessCounting(t *testing.T) {
	ctx := NewContext(testHier(t))
	ctx.Read(0, 0, 3)
	ctx.Write(0, 8, 2)
	ctx.Read(1, 0, 1)
	ctx.Read(0, 0, 0) // zero words: no-op

	sp := ctx.Counters(0)
	if sp.Reads != 3 || sp.Writes != 2 {
		t.Fatalf("sp counters %+v", sp)
	}
	dram := ctx.Counters(1)
	if dram.Reads != 1 || dram.Writes != 0 {
		t.Fatalf("dram counters %+v", dram)
	}
	if ctx.TotalAccesses() != 6 {
		t.Fatalf("total accesses %d", ctx.TotalAccesses())
	}
	// Cycles: 3*1 + 2*1 + 1*16 = 21.
	if ctx.Cycles() != 21 {
		t.Fatalf("cycles %d", ctx.Cycles())
	}
}

func TestContextCompute(t *testing.T) {
	ctx := NewContext(testHier(t))
	ctx.Compute(100)
	if ctx.Cycles() != 100 {
		t.Fatalf("cycles %d", ctx.Cycles())
	}
}

func TestContextEnergy(t *testing.T) {
	ctx := NewContext(testHier(t))
	ctx.Read(1, 0, 10)  // 10 * 8 nJ
	ctx.Write(1, 0, 10) // 10 * 9 nJ
	want := 10*8.0 + 10*9.0
	if got := ctx.Energy(); got != want {
		t.Fatalf("energy %v want %v", got, want)
	}
}

func TestReserveAndFootprint(t *testing.T) {
	ctx := NewContext(testHier(t))
	r1, err := ctx.Reserve(0, 400)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ctx.Reserve(0, 600)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Base() == r2.Base() {
		t.Fatal("regions overlap")
	}
	if r2.Base() != r1.End() {
		t.Fatalf("regions not contiguous: %d vs %d", r2.Base(), r1.End())
	}
	c := ctx.Counters(0)
	if c.ReservedBytes != 1000 || c.PeakBytes != 1000 {
		t.Fatalf("footprint %+v", c)
	}

	// Layer is bounded at 1024: next reservation must fail.
	_, err = ctx.Reserve(0, 100)
	var ce *CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CapacityError, got %v", err)
	}
	if ce.Layer != "sp" || ce.InUse != 1000 || ce.Capacity != 1024 {
		t.Fatalf("capacity error %+v", ce)
	}

	r1.Release()
	c = ctx.Counters(0)
	if c.ReservedBytes != 600 {
		t.Fatalf("reserved after release %d", c.ReservedBytes)
	}
	if c.PeakBytes != 1000 {
		t.Fatalf("peak lost on release: %d", c.PeakBytes)
	}
	// Released space can be re-reserved (accounting-wise).
	if _, err := ctx.Reserve(0, 300); err != nil {
		t.Fatalf("re-reserve failed: %v", err)
	}
}

func TestResetPeak(t *testing.T) {
	ctx := NewContext(testHier(t))
	r1, err := ctx.Reserve(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Reserve(1, 200); err != nil {
		t.Fatal(err)
	}
	r1.Release()
	ctx.ResetPeak(1)
	if c := ctx.Counters(1); c.PeakBytes != 200 {
		t.Fatalf("peak after reset %d, want the reserved 200", c.PeakBytes)
	}
	if _, err := ctx.Reserve(1, 100); err != nil {
		t.Fatal(err)
	}
	if c := ctx.Counters(1); c.PeakBytes != 300 {
		t.Fatalf("peak since reset %d, want 300", c.PeakBytes)
	}
	if c := ctx.Counters(0); c.PeakBytes != 0 {
		t.Fatalf("reset touched another layer: %+v", c)
	}
}

func TestReserveUnboundedLayer(t *testing.T) {
	ctx := NewContext(testHier(t))
	if _, err := ctx.Reserve(1, 1<<40); err != nil {
		t.Fatalf("unbounded layer refused reservation: %v", err)
	}
}

func TestReserveValidation(t *testing.T) {
	ctx := NewContext(testHier(t))
	if _, err := ctx.Reserve(5, 10); err == nil {
		t.Fatal("invalid layer accepted")
	}
	if _, err := ctx.Reserve(0, 0); err == nil {
		t.Fatal("zero-size reservation accepted")
	}
	if _, err := ctx.Reserve(0, -5); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestRegionContains(t *testing.T) {
	ctx := NewContext(testHier(t))
	r, _ := ctx.Reserve(0, 100)
	if !r.Contains(r.Base()) || !r.Contains(r.End()-1) {
		t.Fatal("region excludes own bytes")
	}
	if r.Contains(r.End()) {
		t.Fatal("region contains end")
	}
}

func TestRegionDoubleReleasePanics(t *testing.T) {
	ctx := NewContext(testHier(t))
	r, _ := ctx.Reserve(0, 10)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	r.Release()
}

func TestRegionAccessChargesOwnLayer(t *testing.T) {
	ctx := NewContext(testHier(t))
	r, _ := ctx.Reserve(1, 64)
	r.Read(r.Base(), 2)
	r.Write(r.Base()+8, 1)
	c := ctx.Counters(1)
	if c.Reads != 2 || c.Writes != 1 {
		t.Fatalf("dram counters %+v", c)
	}
	if ctx.Counters(0).Accesses() != 0 {
		t.Fatal("scratchpad charged")
	}
}

func TestContextWithCache(t *testing.T) {
	ctx := NewContext(testHier(t))
	cache, err := memhier.NewCache(64, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.AttachCache(1, cache); err != nil {
		t.Fatal(err)
	}
	if err := ctx.AttachCache(9, cache); err == nil {
		t.Fatal("invalid layer accepted")
	}
	if ctx.Cache(1) != cache {
		t.Fatal("cache not attached")
	}

	// First access misses: the layer is charged a 4-word line fill.
	ctx.Read(1, 0, 1)
	c := ctx.Counters(1)
	if c.Reads != 4 {
		t.Fatalf("miss charged %d reads, want 4", c.Reads)
	}
	// Second access to the same line hits: no extra layer traffic.
	ctx.Read(1, 1, 1)
	c = ctx.Counters(1)
	if c.Reads != 4 {
		t.Fatalf("hit charged the layer: %d reads", c.Reads)
	}
	if cache.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", cache.HitRate())
	}
	// Two cache accesses (1 cycle each) and one 4-word burst fill (16
	// cycles for the first word, 1 for each of the other 3).
	if got, want := ctx.Cycles(), uint64(1+16+3+1); got != want {
		t.Fatalf("cycles %d, want %d", got, want)
	}
}

type recordingTracer struct {
	n     int
	words uint64
}

func (r *recordingTracer) TraceAccess(_ memhier.LayerID, _ uint64, words uint64, _ bool) {
	r.n++
	r.words += words
}

func TestContextTracer(t *testing.T) {
	ctx := NewContext(testHier(t))
	tr := &recordingTracer{}
	ctx.SetTracer(tr)
	ctx.Read(0, 0, 3)
	ctx.Write(1, 0, 2)
	if tr.n != 2 || tr.words != 5 {
		t.Fatalf("tracer saw %d events / %d words", tr.n, tr.words)
	}
	ctx.SetTracer(nil)
	ctx.Read(0, 0, 1)
	if tr.n != 2 {
		t.Fatal("tracer not removed")
	}
}

func TestPropertyReserveNeverOverlaps(t *testing.T) {
	ctx := NewContext(testHier(t))
	var regions []Region
	if err := quick.Check(func(sz uint16) bool {
		size := int64(sz%512) + 1
		r, err := ctx.Reserve(1, size)
		if err != nil {
			return false
		}
		for _, prev := range regions {
			if r.Base() < prev.End() && prev.Base() < r.End() {
				return false
			}
		}
		regions = append(regions, r)
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPeakMonotone(t *testing.T) {
	ctx := NewContext(testHier(t))
	prevPeak := int64(0)
	if err := quick.Check(func(sz uint16, release bool) bool {
		size := int64(sz%256) + 1
		r, err := ctx.Reserve(1, size)
		if err != nil {
			return false
		}
		if release {
			r.Release()
		}
		peak := ctx.Counters(1).PeakBytes
		ok := peak >= prevPeak && peak >= ctx.Counters(1).ReservedBytes
		prevPeak = peak
		return ok
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTotalReservedRunningTotal pins the O(1) running total to the
// per-layer recomputation across a reserve/release sequence.
func TestTotalReservedRunningTotal(t *testing.T) {
	ctx := NewContext(testHier(t))
	sum := func() int64 {
		var total int64
		for i := 0; i < ctx.Hierarchy().NumLayers(); i++ {
			total += ctx.Counters(memhier.LayerID(i)).ReservedBytes
		}
		return total
	}
	var regions []Region
	for i, size := range []int64{400, 2048, 128, 64} {
		r, err := ctx.Reserve(memhier.LayerID(i%2), size)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
		if got, want := ctx.TotalReservedBytes(), sum(); got != want {
			t.Fatalf("after reserve %d: running total %d, recomputed %d", i, got, want)
		}
	}
	for i := range regions {
		regions[i].Release()
		if got, want := ctx.TotalReservedBytes(), sum(); got != want {
			t.Fatalf("after release %d: running total %d, recomputed %d", i, got, want)
		}
	}
	if ctx.TotalReservedBytes() != 0 {
		t.Fatalf("non-zero total %d after releasing everything", ctx.TotalReservedBytes())
	}
}

// countingTracer forces the slow access path while observing nothing.
type countingTracer struct{ n int }

func (c *countingTracer) TraceAccess(memhier.LayerID, uint64, uint64, bool) { c.n++ }

// TestFastPathMatchesSlowPath replays the same charge sequence through
// the batched fast path and the traced slow path: all counters and the
// clock must agree (the tracer itself has no model effect).
func TestFastPathMatchesSlowPath(t *testing.T) {
	charge := func(ctx *Context) {
		ctx.Read(0, 0, 3)
		ctx.Write(0, 8, 2)
		ctx.Read(1, 16, 7)
		ctx.Write(1, 0, 1)
		ctx.Read(1, 0, 0)
		ctx.Compute(5)
	}
	fast := NewContext(testHier(t))
	charge(fast)

	slow := NewContext(testHier(t))
	tr := &countingTracer{}
	slow.SetTracer(tr)
	charge(slow)

	for i := 0; i < 2; i++ {
		if fast.Counters(memhier.LayerID(i)) != slow.Counters(memhier.LayerID(i)) {
			t.Fatalf("layer %d counters diverge: %+v vs %+v",
				i, fast.Counters(memhier.LayerID(i)), slow.Counters(memhier.LayerID(i)))
		}
	}
	if fast.Cycles() != slow.Cycles() {
		t.Fatalf("cycles diverge: %d vs %d", fast.Cycles(), slow.Cycles())
	}
	if fast.Energy() != slow.Energy() {
		t.Fatalf("energy diverges: %v vs %v", fast.Energy(), slow.Energy())
	}
	if tr.n != 4 { // one TraceAccess per non-empty charge
		t.Fatalf("tracer saw %d accesses", tr.n)
	}
	// Clearing the tracer restores the fast path.
	slow.SetTracer(nil)
	slow.Read(0, 0, 1)
	if tr.n != 4 {
		t.Fatal("tracer still active after SetTracer(nil)")
	}
}

// TestCyclesExactAcrossModelSwitches charges flat, then with a tracer
// and a cache attached mid-run, then flat again: the clock must
// equal the hand-computed latency sum, so the flat cost Cycles derives
// from the counters never double-counts or drops a modelled word.
func TestCyclesExactAcrossModelSwitches(t *testing.T) {
	ctx := NewContext(testHier(t))
	ctx.Read(1, 0, 4)  // 4*16
	ctx.Write(0, 0, 3) // 3*1
	ctx.SetTracer(&countingTracer{})
	ctx.Write(1, 0, 2) // 2*18
	c, err := memhier.NewCache(128, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.AttachCache(1, c); err != nil {
		t.Fatal(err)
	}
	// Five cache accesses (1 each); the first misses and fills an
	// 8-word line: 16 for its first word, 1 for each of the other 7.
	ctx.Read(1, 0, 5)
	ctx.SetTracer(nil)
	ctx.Write(1, 3, 1) // same line: a hit (1)
	ctx.caches[1] = nil
	ctx.updateFast()
	ctx.Read(1, 0, 2) // flat again: 2*16
	ctx.Compute(7)
	want := uint64(4*16 + 3*1 + 2*18 + 5 + 16 + 7 + 1 + 2*16 + 7)
	if got := ctx.Cycles(); got != want {
		t.Fatalf("cycles %d, want %d", got, want)
	}
	if c := ctx.Counters(1); c.Reads != 14 || c.Writes != 2 {
		t.Fatalf("dram counters %+v", c)
	}
}

// TestContextResetMatchesNew holds Reset to its contract: a context that
// reserved, charged, computed and had a tracer and a cache attached
// reads, after Reset onto another hierarchy, exactly as a new
// one does, and charges the same from then on.
func TestContextResetMatchesNew(t *testing.T) {
	ctx := NewContext(memhier.EmbeddedSoC())
	if _, err := ctx.Reserve(0, 4096); err != nil {
		t.Fatal(err)
	}
	c, err := memhier.NewCache(256, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.AttachCache(0, c); err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{}
	ctx.SetTracer(tr)
	ctx.Read(0, 0, 5)
	ctx.Write(1, 64, 3)
	ctx.Compute(77)

	h := testHier(t)
	ctx.Reset(h)
	fresh := NewContext(h)
	run := func(ctx *Context) (Region, error) {
		r, err := ctx.Reserve(1, 300)
		ctx.Read(0, 0, 4)
		ctx.Write(1, r.Base(), 2)
		ctx.Compute(9)
		return r, err
	}
	if !ctx.Flat() || ctx.Cache(0) != nil {
		t.Fatalf("reset context keeps a model: flat %v, cache %v", ctx.Flat(), ctx.Cache(0))
	}
	got, gotErr := run(ctx)
	want, wantErr := run(fresh)
	if gotErr != nil || wantErr != nil || got.Base() != want.Base() || got.Size() != want.Size() {
		t.Fatalf("reserve after reset %+v (%v), on a new context %+v (%v)", got, gotErr, want, wantErr)
	}
	if tr.n != 2 {
		t.Fatalf("the tracer saw %d accesses, want the 2 made before the reset", tr.n)
	}
	for id := memhier.LayerID(0); int(id) < h.NumLayers(); id++ {
		if g, w := ctx.Counters(id), fresh.Counters(id); g != w {
			t.Fatalf("layer %d: counters %+v after reset, %+v on a new context", id, g, w)
		}
	}
	if ctx.Cycles() != fresh.Cycles() || ctx.Energy() != fresh.Energy() || ctx.TotalReservedBytes() != fresh.TotalReservedBytes() {
		t.Fatalf("after reset: cycles %d energy %v reserved %d; new context: %d %v %d",
			ctx.Cycles(), ctx.Energy(), ctx.TotalReservedBytes(), fresh.Cycles(), fresh.Energy(), fresh.TotalReservedBytes())
	}
}

// TestContextResetZeroAllocs: once a context's tables fit the
// hierarchy, Reset and a run of reserves and charges allocate nothing,
// Regions included (Reserve returns them by value).
func TestContextResetZeroAllocs(t *testing.T) {
	h := memhier.EmbeddedSoC()
	ctx := NewContext(h)
	var sink uint64
	avg := testing.AllocsPerRun(100, func() {
		ctx.Reset(h)
		for i := 0; i < 8; i++ {
			r, err := ctx.Reserve(memhier.LayerID(i%h.NumLayers()), 64)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Write(r.Layer(), r.Base(), 2)
			sink += r.End()
		}
	})
	if avg != 0 {
		t.Fatalf("Reset and 8 reserves allocate %.1f times, want 0", avg)
	}
	_ = sink
}
