package alloc

import (
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// stashConfigs are two configurations that together use every part of a
// stash: fixed pools on both layers, one address-ordered (an indexed
// list) that reclaims its chunks and one bounded on the scratchpad, and
// general pools with different size-class maps, fits and orders.
func stashConfigs() []Config {
	return []Config{
		{
			Fixed: []FixedConfig{
				{SlotBytes: 64, MatchLo: 33, MatchHi: 64, Layer: memhier.LayerScratchpad,
					Order: LIFO, Links: SingleLink, Growth: GrowFixedChunk, ChunkSlots: 32, MaxBytes: 4 << 10},
				{SlotBytes: 32, MatchLo: 1, MatchHi: 32, Layer: memhier.LayerDRAM,
					Order: AddrOrder, Links: DoubleLink, Growth: GrowFixedChunk, ChunkSlots: 16, Reclaim: true},
			},
			General: GeneralConfig{Layer: memhier.LayerDRAM, Classes: "linear:64:2048",
				Fit: BestFit, Order: AddrOrder, Links: SingleLink, Split: SplitAlways,
				Coalesce: CoalesceImmediate, Headers: HeaderBoundaryTag, Growth: GrowFixedChunk,
				ChunkBytes: 8 << 10},
		},
		{
			General: GeneralConfig{Layer: memhier.LayerDRAM, Classes: "single",
				Fit: NextFit, Order: LIFO, Links: SingleLink, Split: SplitAlways,
				Coalesce: CoalesceDeferred, CoalesceEvery: 16, Headers: HeaderMinimal,
				Growth: GrowDouble, ChunkBytes: 4 << 10},
		},
	}
}

// exercise runs a fixed malloc/free sequence on a: bursts of live
// allocations that outgrow the scratchpad pool, free in an interleaved
// order (long free lists, index builds, merges, chunk reclaims), then
// free everything.
func exercise(t *testing.T, a *Composed) {
	var live [600]Ptr
	for round := 0; round < 3; round++ {
		for i := range live {
			size := int64(8 + (i*37+round*11)%900)
			switch {
			case i%3 == 0:
				size = int64(33 + i%32) // the scratchpad pool's sizes
			case i%5 == 1:
				size = int64(8 + i%25) // the reclaiming pool's
			}
			p, err := a.Malloc(size)
			if err != nil {
				t.Fatalf("malloc %d: %v", i, err)
			}
			live[i] = p
		}
		for _, step := range []int{2, 1} {
			for i := step - 1; i < len(live); i += 2 {
				if err := a.Free(live[i]); err != nil {
					t.Fatalf("free %d: %v", i, err)
				}
			}
		}
	}
}

// TestStashBuildZeroAllocs: on a warm stash and a reset context, building
// a configuration, running it and reclaiming it allocates nothing — pool
// structs, bins, arenas, live tables, index nodes, fixed-pool arenas and
// slot pages, size-class maps and the Composed are all the stash's.
func TestStashBuildZeroAllocs(t *testing.T) {
	h := memhier.EmbeddedSoC()
	var ctx simheap.Context
	var stash BlockStash
	cfgs := stashConfigs()
	cycle := func() {
		for _, cfg := range cfgs {
			ctx.Reset(h)
			a, err := cfg.Build(&ctx, &stash)
			if err != nil {
				t.Fatal(err)
			}
			exercise(t, a)
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			stash.Reclaim()
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(5, cycle); avg != 0 {
		t.Fatalf("a warm build, run and reclaim allocates %.1f times, want 0", avg)
	}
}

// TestStashBuildMatchesFresh: an allocator built on a stash that earlier
// allocators left charges, reserves and counts exactly what one built on
// a fresh stash does.
func TestStashBuildMatchesFresh(t *testing.T) {
	h := memhier.EmbeddedSoC()
	var ctx simheap.Context
	var stash BlockStash
	cfgs := stashConfigs()
	for i := 0; i < 6; i++ {
		cfg := cfgs[i%len(cfgs)]
		ctx.Reset(h)
		a, err := cfg.Build(&ctx, &stash)
		if err != nil {
			t.Fatal(err)
		}
		exercise(t, a)
		fresh := simheap.NewContext(h)
		b, err := cfg.Build(fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		exercise(t, b)
		if fixed := a.fixed; len(fixed) > 0 && (fixed[0].ArenaBytes() != 4<<10 || fixed[1].Reclaims() == 0) {
			t.Fatalf("build %d: the scratchpad pool holds %d bytes and the reclaiming pool reclaimed %d chunks: the run exercises neither limit",
				i, fixed[0].ArenaBytes(), fixed[1].Reclaims())
		}
		for _, c := range []*Composed{a, b} {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("build %d: %v", i, err)
			}
		}
		if ctx.Cycles() != fresh.Cycles() || ctx.TotalPeakBytes() != fresh.TotalPeakBytes() {
			t.Fatalf("build %d on a warm stash: %d cycles, %d peak bytes; fresh %d, %d",
				i, ctx.Cycles(), ctx.TotalPeakBytes(), fresh.Cycles(), fresh.TotalPeakBytes())
		}
		for id := memhier.LayerID(0); int(id) < h.NumLayers(); id++ {
			if ctx.Counters(id) != fresh.Counters(id) {
				t.Fatalf("build %d, layer %d: %+v on a warm stash, %+v fresh", i, id, ctx.Counters(id), fresh.Counters(id))
			}
		}
		stash.Reclaim()
	}
}
