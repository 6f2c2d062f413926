package profile

import (
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// countingTracer totals the words of every traced access per layer.
type countingTracer struct {
	reads, writes []uint64
}

func (c *countingTracer) TraceAccess(layer memhier.LayerID, _ uint64, words uint64, write bool) {
	if write {
		c.writes[layer] += words
	} else {
		c.reads[layer] += words
	}
}

// TestFlatScanChargeMatchesPerAddress is the differential check on the
// free-list charges: on a flat context FreeList answers best/worst-fit
// scans and address-ordered insert walks from its indexes and folds their
// reads into one charge, while an attached tracer forces the per-block
// walk. Every general pool of fit × order × links × coalesce must replay
// a short Easyport trace to identical per-layer reads, writes and cycles
// either way, and the tracer must see exactly the words the counters
// hold. A worst-fit stress trace then repeats the check with free lists
// past 1,000 blocks, and a long-walk stress trace with first- and
// next-fit lists whose order index answers the searches.
func TestFlatScanChargeMatchesPerAddress(t *testing.T) {
	p := workload.DefaultEasyportParams()
	p.Packets = 120
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	run := func(ct *trace.Compiled, cfg alloc.Config, tracer simheap.AccessTracer) (*simheap.Context, *alloc.Composed) {
		t.Helper()
		ctx := simheap.NewContext(h)
		if tracer != nil {
			ctx.SetTracer(tracer)
		}
		a, err := cfg.Build(ctx, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.ID(), err)
		}
		r := NewReplayer()
		r.reset(ct.NumIDs)
		var m Metrics
		if err := r.replay(ct, a, ctx, &m, 0, nil); err != nil {
			t.Fatalf("%s: %v", cfg.ID(), err)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", cfg.ID(), err)
		}
		return ctx, a
	}
	// compare replays ct flat and traced and returns the flat allocator.
	compare := func(tr *trace.Trace, cfg alloc.Config) *alloc.Composed {
		t.Helper()
		ct, err := trace.Compile(tr)
		if err != nil {
			t.Fatal(err)
		}
		flat, a := run(ct, cfg, nil)
		tc := &countingTracer{
			reads:  make([]uint64, h.NumLayers()),
			writes: make([]uint64, h.NumLayers()),
		}
		traced, _ := run(ct, cfg, tc)
		if flat.Cycles() != traced.Cycles() {
			t.Errorf("%s: cycles %d flat, %d per-address", cfg.ID(), flat.Cycles(), traced.Cycles())
		}
		for l := 0; l < h.NumLayers(); l++ {
			id := memhier.LayerID(l)
			f, g := flat.Counters(id), traced.Counters(id)
			if f.Reads != g.Reads || f.Writes != g.Writes {
				t.Errorf("%s: layer %d: flat %d/%d, per-address %d/%d reads/writes",
					cfg.ID(), l, f.Reads, f.Writes, g.Reads, g.Writes)
			}
			if tc.reads[l] != g.Reads || tc.writes[l] != g.Writes {
				t.Errorf("%s: layer %d: tracer saw %d/%d, counters hold %d/%d reads/writes",
					cfg.ID(), l, tc.reads[l], tc.writes[l], g.Reads, g.Writes)
			}
		}
		return a
	}
	fits := []alloc.FitPolicy{alloc.FirstFit, alloc.NextFit, alloc.BestFit, alloc.WorstFit, alloc.ExactFit}
	orders := []alloc.ListOrder{alloc.LIFO, alloc.FIFO, alloc.AddrOrder}
	links := []alloc.ListLinks{alloc.SingleLink, alloc.DoubleLink}
	coalesce := []alloc.CoalesceMode{alloc.CoalesceNever, alloc.CoalesceImmediate, alloc.CoalesceDeferred}
	general := func(fit alloc.FitPolicy, order alloc.ListOrder, link alloc.ListLinks, co alloc.CoalesceMode) alloc.Config {
		cfg := alloc.SimpleFirstFitConfig(memhier.LayerDRAM)
		cfg.General.Fit = fit
		cfg.General.Order = order
		cfg.General.Links = link
		cfg.General.Coalesce = co
		cfg.General.CoalesceEvery = 16
		return cfg
	}
	for _, fit := range fits {
		for _, order := range orders {
			for _, link := range links {
				for _, co := range coalesce {
					compare(tr, general(fit, order, link, co))
				}
			}
		}
	}

	// Worst-fit stress: 4,000 live blocks, every other one freed (live
	// neighbours keep even immediate coalescing from merging them), then
	// churn that splits the largest free block again and again.
	b := trace.NewBuilder("worst-fit-stress")
	ids := make([]uint64, 4000)
	for i := range ids {
		ids[i] = b.Alloc(int64(16 + i*37%500))
	}
	for i := 0; i < len(ids); i += 2 {
		b.Free(ids[i])
	}
	var held []uint64
	for i := 0; i < 3000; i++ {
		id := b.Alloc(int64(8 + i*53%300))
		b.Access(id, 2, 1)
		held = append(held, id)
		if i%3 == 2 {
			b.Free(held[i*7%len(held)])
			held[i*7%len(held)] = held[len(held)-1]
			held = held[:len(held)-1]
		}
	}
	stress := b.Build()
	for _, order := range orders {
		for _, link := range links {
			for _, co := range coalesce[:2] {
				cfg := general(alloc.WorstFit, order, link, co)
				a := compare(stress, cfg)
				if n := a.Fallback().(*alloc.GeneralPool).FreeBlocks(); n < 1000 {
					t.Errorf("%s: stress trace leaves %d free blocks, want lists past 1,000", cfg.ID(), n)
				}
			}
		}
	}

	longWalks := longWalkTrace()
	longWalk := func(fit alloc.FitPolicy, order alloc.ListOrder, link alloc.ListLinks, co alloc.CoalesceMode) {
		cfg := longWalkConfig(fit, order, link, co)
		a := compare(longWalks, cfg)
		if n := a.Fallback().(*alloc.GeneralPool).FitIndexedBins(); n != 1 {
			t.Errorf("%s: the order index answers searches on %d bins at the end, want 1", cfg.ID(), n)
		}
	}
	for _, order := range orders {
		for _, link := range links {
			for _, co := range coalesce[:2] {
				longWalk(alloc.NextFit, order, link, co)
			}
		}
	}
	// Address-ordered first fit, shaped like EasyportSpace 10 and 138
	// (walks averaging 175–277 blocks).
	for _, link := range links {
		for _, co := range coalesce[:2] {
			longWalk(alloc.FirstFit, alloc.AddrOrder, link, co)
		}
	}
}

// longWalkTrace is a stress trace shaped like VTCSpace configurations 14
// and 15 (one size class, next fit, split always; walks averaging
// 474–610 blocks on 8k-block lists): 4,000 small free blocks kept apart
// by live ones, then small requests, which stop a few blocks past the
// rover, mixed with one request in eight larger than any free block,
// whose walk passes the whole list (and, under next fit, wraps to the
// head). It ends with every block freed.
func longWalkTrace() *trace.Trace {
	b := trace.NewBuilder("long-walk-stress")
	ids := make([]uint64, 8000)
	for i := range ids {
		ids[i] = b.Alloc(int64(16 + i*29%48))
	}
	for i := 0; i < len(ids); i += 2 {
		b.Free(ids[i])
	}
	var held []uint64
	for i := 0; i < 3000; i++ {
		size := int64(8 + i*53%40)
		if i%8 == 7 {
			size = 9000 + int64(i%5)*512
		}
		id := b.Alloc(size)
		b.Access(id, 1, 1)
		held = append(held, id)
		if i%3 == 2 {
			b.Free(held[i*7%len(held)])
			held[i*7%len(held)] = held[len(held)-1]
			held = held[:len(held)-1]
		}
	}
	b.FreeAll()
	return b.Build()
}

// longWalkConfig is a one-class DRAM general pool that splits always,
// searched and ordered as given.
func longWalkConfig(fit alloc.FitPolicy, order alloc.ListOrder, link alloc.ListLinks, co alloc.CoalesceMode) alloc.Config {
	cfg := alloc.SimpleFirstFitConfig(memhier.LayerDRAM)
	cfg.General.Classes = "single"
	cfg.General.Fit = fit
	cfg.General.Order = order
	cfg.General.Links = link
	cfg.General.Coalesce = co
	cfg.General.Split = alloc.SplitAlways
	return cfg
}
