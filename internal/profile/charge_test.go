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
// free-list scan charge: under the flat cost model FreeList.Take folds a
// scan into one read of 2n words, while an attached tracer forces the
// per-block path. Every general pool of fit × order × links × coalesce
// must replay a short Easyport trace to identical per-layer reads,
// writes and cycles either way, and the tracer must see exactly the
// words the counters hold.
func TestFlatScanChargeMatchesPerAddress(t *testing.T) {
	p := workload.DefaultEasyportParams()
	p.Packets = 120
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	run := func(cfg alloc.Config, tracer simheap.AccessTracer) *simheap.Context {
		t.Helper()
		ctx := simheap.NewContext(h)
		if tracer != nil {
			ctx.SetTracer(tracer)
		}
		a, err := cfg.Build(ctx)
		if err != nil {
			t.Fatalf("%s: %v", cfg.ID(), err)
		}
		r := NewReplayer()
		r.reset(ct.NumIDs)
		var m Metrics
		if err := r.replay(ct, a, ctx, &m, 0, nil); err != nil {
			t.Fatalf("%s: %v", cfg.ID(), err)
		}
		return ctx
	}
	fits := []alloc.FitPolicy{alloc.FirstFit, alloc.NextFit, alloc.BestFit, alloc.WorstFit, alloc.ExactFit}
	orders := []alloc.ListOrder{alloc.LIFO, alloc.FIFO, alloc.AddrOrder}
	links := []alloc.ListLinks{alloc.SingleLink, alloc.DoubleLink}
	coalesce := []alloc.CoalesceMode{alloc.CoalesceNever, alloc.CoalesceImmediate, alloc.CoalesceDeferred}
	for _, fit := range fits {
		for _, order := range orders {
			for _, link := range links {
				for _, co := range coalesce {
					cfg := alloc.SimpleFirstFitConfig(memhier.LayerDRAM)
					cfg.General.Fit = fit
					cfg.General.Order = order
					cfg.General.Links = link
					cfg.General.Coalesce = co
					cfg.General.CoalesceEvery = 16
					flat := run(cfg, nil)
					tc := &countingTracer{
						reads:  make([]uint64, h.NumLayers()),
						writes: make([]uint64, h.NumLayers()),
					}
					traced := run(cfg, tc)
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
				}
			}
		}
	}
}
