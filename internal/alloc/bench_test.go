package alloc

import (
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
	"dmexplore/internal/stats"
)

// Micro-benchmarks: simulator throughput of the allocator building
// blocks. These measure how fast dmexplore explores (simulated ops/sec),
// not target-hardware performance.

func benchCtx(b *testing.B) *simheap.Context {
	b.Helper()
	h, err := memhier.New(memhier.Layer{
		Name: "mem", ReadEnergy: 1, WriteEnergy: 1, ReadCycles: 1, WriteCycles: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return simheap.NewContext(h)
}

func BenchmarkFixedPoolMallocFree(b *testing.B) {
	ctx := benchCtx(b)
	p, err := NewFixedPool(ctx, FixedPoolParams{
		Layer: 0, SlotBytes: 74, MatchLo: 74, MatchHi: 74,
		Order: LIFO, Links: SingleLink, Growth: GrowFixedChunk, ChunkSlots: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := p.Malloc(74)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralPoolMallocFree(b *testing.B) {
	for _, cfg := range []struct {
		name string
		mut  func(*GeneralPoolParams)
	}{
		{"firstfit-single", nil},
		{"bestfit-single", func(g *GeneralPoolParams) { g.Fit = BestFit }},
		{"segstorage-pow2", func(g *GeneralPoolParams) {
			classes, _ := NewPow2Classes(16, 65536)
			g.Classes = classes
			g.Fit = ExactFit
			g.Split = SplitNever
			g.Coalesce = CoalesceNever
			g.RoundToClass = true
		}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			ctx := benchCtx(b)
			params := GeneralPoolParams{
				Layer: 0, Classes: SingleClass{}, Fit: FirstFit, Order: LIFO,
				Links: SingleLink, Split: SplitAlways, Coalesce: CoalesceImmediate,
				Headers: HeaderBoundaryTag, Growth: GrowFixedChunk, ChunkBytes: 64 * 1024,
			}
			if cfg.mut != nil {
				cfg.mut(&params)
			}
			p, err := NewGeneralPool(ctx, params)
			if err != nil {
				b.Fatal(err)
			}
			r := stats.NewRNG(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ptr, err := p.Malloc(int64(r.Intn(1000)) + 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Free(ptr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuddyMallocFree(b *testing.B) {
	ctx := benchCtx(b)
	p, err := NewBuddyPool(ctx, BuddyPoolParams{Layer: 0, MinBlock: 64, MaxBlock: 64 * 1024})
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := p.Malloc(int64(r.Intn(4000)) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComposedChurn(b *testing.B) {
	ctx := simheap.NewContext(memhier.EmbeddedSoC())
	cfg := Config{
		Fixed: []FixedConfig{{
			SlotBytes: 74, MatchLo: 74, MatchHi: 74, Layer: memhier.LayerScratchpad,
			Order: LIFO, Links: SingleLink, Growth: GrowFixedChunk, ChunkSlots: 256,
			MaxBytes: 48 * 1024,
		}},
		General: GeneralConfig{
			Layer: memhier.LayerDRAM, Classes: "pow2:16:65536", RoundToClass: true,
			Fit: FirstFit, Order: LIFO, Links: SingleLink,
			Split: SplitNever, Coalesce: CoalesceNever,
			Headers: HeaderMinimal, Growth: GrowFixedChunk, ChunkBytes: 64 * 1024,
		},
	}
	a, err := cfg.Build(ctx, nil)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(1)
	var live []Ptr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) > 64 && r.Bool(0.55) {
			k := r.Intn(len(live))
			if err := a.Free(live[k]); err != nil {
				b.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			size := int64(74)
			if r.Bool(0.3) {
				size = int64(r.Intn(1500)) + 1
			}
			ptr, err := a.Malloc(size)
			if err != nil {
				b.Fatal(err)
			}
			live = append(live, ptr)
		}
	}
}
