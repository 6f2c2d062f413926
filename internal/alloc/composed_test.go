package alloc

import (
	"encoding/json"
	"errors"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/stats"
)

// buildTestAllocator assembles a two-pool allocator on a two-layer
// hierarchy: a 74-byte dedicated pool on the scratchpad, general pool in
// DRAM.
func buildTestAllocator(t *testing.T, spBytes int64) (*Composed, *memhier.Hierarchy) {
	t.Helper()
	ctx := twoLayerCtx(t, spBytes)
	fp, err := NewFixedPool(ctx, FixedPoolParams{
		Layer: 0, SlotBytes: 74, MatchLo: 74, MatchHi: 74,
		Order: LIFO, Links: SingleLink, Growth: GrowFixedChunk, ChunkSlots: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	gp, err := NewGeneralPool(ctx, GeneralPoolParams{
		Layer: 1, Classes: SingleClass{}, Fit: FirstFit, Order: LIFO,
		Links: SingleLink, Split: SplitAlways, Coalesce: CoalesceImmediate,
		Headers: HeaderBoundaryTag, Growth: GrowFixedChunk, ChunkBytes: 16 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewComposed("test", ctx, []*FixedPool{fp}, gp)
	if err != nil {
		t.Fatal(err)
	}
	return a, ctx.Hierarchy()
}

func TestComposedRouting(t *testing.T) {
	a, _ := buildTestAllocator(t, 64*1024)
	p74, err := a.Malloc(74)
	if err != nil {
		t.Fatal(err)
	}
	if p74.Layer != 0 {
		t.Fatalf("74-byte request landed on layer %d, want scratchpad", p74.Layer)
	}
	p200, err := a.Malloc(200)
	if err != nil {
		t.Fatal(err)
	}
	if p200.Layer != 1 {
		t.Fatalf("200-byte request landed on layer %d, want dram", p200.Layer)
	}
	if err := a.Free(p74); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p200); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestComposedFallbackOnScratchpadOverflow(t *testing.T) {
	// Scratchpad too small for even one chunk: 74-byte requests must
	// still succeed, served by the DRAM general pool.
	a, _ := buildTestAllocator(t, 256)
	ptr, err := a.Malloc(74)
	if err != nil {
		t.Fatal(err)
	}
	if ptr.Layer != 1 {
		t.Fatalf("overflowed request on layer %d, want dram fallback", ptr.Layer)
	}
	st := a.Stats()
	if st.Failures != 0 {
		t.Fatalf("fallback recorded as failure: %+v", st)
	}
}

func TestComposedStats(t *testing.T) {
	a, _ := buildTestAllocator(t, 64*1024)
	p1, _ := a.Malloc(74)
	p2, _ := a.Malloc(100)
	st := a.Stats()
	if st.Mallocs != 2 || st.LiveBlocks != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.RequestedLive != 174 {
		t.Fatalf("requested %d", st.RequestedLive)
	}
	if st.AllocatedLive < st.RequestedLive {
		t.Fatalf("allocated %d < requested %d", st.AllocatedLive, st.RequestedLive)
	}
	frag := st.InternalFragmentation()
	if frag < 0 || frag >= 1 {
		t.Fatalf("fragmentation %v", frag)
	}
	a.Free(p1)
	a.Free(p2)
	st = a.Stats()
	if st.Frees != 2 || st.LiveBlocks != 0 || st.RequestedLive != 0 || st.AllocatedLive != 0 {
		t.Fatalf("stats after frees %+v", st)
	}
}

func TestComposedWhereAndSizeOf(t *testing.T) {
	a, _ := buildTestAllocator(t, 64*1024)
	ptr, _ := a.Malloc(100)
	if got, ok := a.Where(ptr); !ok || got != ptr {
		t.Fatal("Where failed for live ptr")
	}
	if size, ok := a.SizeOf(ptr); !ok || size != 100 {
		t.Fatalf("SizeOf = %d,%v", size, ok)
	}
	a.Free(ptr)
	if _, ok := a.Where(ptr); ok {
		t.Fatal("Where found freed ptr")
	}
	if _, ok := a.SizeOf(ptr); ok {
		t.Fatal("SizeOf found freed ptr")
	}
}

func TestComposedErrors(t *testing.T) {
	a, _ := buildTestAllocator(t, 64*1024)
	if _, err := a.Malloc(0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("size 0: %v", err)
	}
	ptr, _ := a.Malloc(50)
	// A hand-built Ptr carries no handle, even naming a live block.
	if err := a.Free(Ptr{Layer: ptr.Layer, Addr: ptr.Addr}); !errors.Is(err, ErrBadFree) {
		t.Fatalf("hand-built free: %v", err)
	}
	if _, ok := a.Where(ptr); !ok {
		t.Fatal("rejected hand-built free released the live block")
	}
	a.Free(ptr)
	if err := a.Free(ptr); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v", err)
	}
}

func TestComposedNeedsGeneralPool(t *testing.T) {
	ctx := testCtx(t)
	if _, err := NewComposed("x", ctx, nil, nil); err == nil {
		t.Fatal("nil general pool accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	h := memhier.EmbeddedSoC()
	good := Config{
		Fixed: []FixedConfig{{
			SlotBytes: 74, MatchLo: 74, MatchHi: 74,
			Layer: memhier.LayerScratchpad,
			Order: LIFO, Links: SingleLink, Growth: GrowFixedChunk, ChunkSlots: 32,
		}},
		General: GeneralConfig{
			Layer: memhier.LayerDRAM, Classes: "pow2:16:65536",
			Fit: FirstFit, Order: LIFO, Links: SingleLink,
			Split: SplitAlways, Coalesce: CoalesceImmediate,
			Headers: HeaderBoundaryTag, Growth: GrowFixedChunk, ChunkBytes: 16 * 1024,
		},
	}
	if err := good.Validate(h); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	bad := good
	bad.Fixed = []FixedConfig{good.Fixed[0]}
	bad.Fixed[0].Layer = "nowhere"
	if err := bad.Validate(h); err == nil {
		t.Fatal("unknown fixed layer accepted")
	}

	bad = good
	bad.General.Layer = "nowhere"
	if err := bad.Validate(h); err == nil {
		t.Fatal("unknown general layer accepted")
	}

	bad = good
	bad.General.Classes = "garbage"
	if err := bad.Validate(h); err == nil {
		t.Fatal("bad class spec accepted")
	}
}

func TestConfigBuildAndRun(t *testing.T) {
	h := memhier.EmbeddedSoC()
	cfg := Config{
		Label: "unit",
		Fixed: []FixedConfig{{
			SlotBytes: 74, MatchLo: 70, MatchHi: 74,
			Layer: memhier.LayerScratchpad,
			Order: LIFO, Links: SingleLink, Growth: GrowFixedChunk, ChunkSlots: 32,
			MaxBytes: 32 * 1024,
		}},
		General: GeneralConfig{
			Layer: memhier.LayerDRAM, Classes: "linear:8:2048",
			Fit: BestFit, Order: FIFO, Links: DoubleLink,
			Split: SplitAlways, Coalesce: CoalesceImmediate,
			Headers: HeaderBoundaryTag, Growth: GrowFixedChunk, ChunkBytes: 32 * 1024,
		},
	}
	ctx := newCtx(t, h)
	a, err := cfg.Build(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "unit" {
		t.Fatalf("name %q", a.Name())
	}
	r := stats.NewRNG(7)
	var live []Ptr
	for i := 0; i < 3000; i++ {
		if len(live) > 0 && r.Bool(0.48) {
			k := r.Intn(len(live))
			if err := a.Free(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		} else {
			size := int64(r.Intn(1500)) + 1
			if r.Bool(0.5) {
				size = 74
			}
			ptr, err := a.Malloc(size)
			if err != nil {
				t.Fatalf("malloc(%d): %v", size, err)
			}
			live = append(live, ptr)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Scratchpad must have been used for the 74-byte traffic.
	if ctx.Counters(0).PeakBytes == 0 {
		t.Fatal("scratchpad unused")
	}
}

func TestConfigIDStableAndDistinct(t *testing.T) {
	a := KingsleyConfig("dram")
	b := KingsleyConfig("dram")
	if a.ID() != b.ID() {
		t.Fatal("identical configs with different IDs")
	}
	c := LeaConfig("dram")
	if a.ID() == c.ID() {
		t.Fatal("different configs with same ID")
	}
	d := KingsleyConfig("dram")
	d.General.Fit = FirstFit
	if a.ID() == d.ID() {
		t.Fatal("fit change not reflected in ID")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	in := LeaConfig(memhier.LayerDRAM)
	in.Fixed = []FixedConfig{{
		SlotBytes: 1500, MatchLo: 1400, MatchHi: 1500,
		Layer: memhier.LayerDRAM, Order: FIFO, Links: DoubleLink,
		Growth: GrowDouble, ChunkSlots: 8, MaxBytes: 1 << 20,
	}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Config
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID() != in.ID() {
		t.Fatalf("round trip changed ID:\n%s\n%s", in.ID(), out.ID())
	}
}

func TestPresetsBuildAndWork(t *testing.T) {
	h := memhier.FlatDRAM()
	for _, cfg := range []Config{
		KingsleyConfig(memhier.LayerDRAM),
		LeaConfig(memhier.LayerDRAM),
		SimpleFirstFitConfig(memhier.LayerDRAM),
	} {
		t.Run(cfg.Label, func(t *testing.T) {
			ctx := newCtx(t, h)
			a, err := cfg.Build(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := stats.NewRNG(11)
			var live []Ptr
			for i := 0; i < 2000; i++ {
				if len(live) > 0 && r.Bool(0.5) {
					k := r.Intn(len(live))
					if err := a.Free(live[k]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:k], live[k+1:]...)
				} else {
					ptr, err := a.Malloc(int64(r.Intn(2000)) + 1)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, ptr)
				}
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestKingsleyCheaperButFatterThanLea(t *testing.T) {
	// The canonical trade-off: Kingsley does fewer accesses, Lea keeps a
	// smaller footprint. This is the axis the whole paper explores.
	h := memhier.FlatDRAM()
	run := func(cfg Config) (accesses uint64, footprint int64) {
		ctx := newCtx(t, h)
		a, err := cfg.Build(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRNG(99)
		var live []Ptr
		for i := 0; i < 5000; i++ {
			if len(live) > 0 && r.Bool(0.5) {
				k := r.Intn(len(live))
				a.Free(live[k])
				live = append(live[:k], live[k+1:]...)
			} else {
				ptr, err := a.Malloc(int64(r.Intn(1000)) + 1)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, ptr)
			}
		}
		return ctx.TotalAccesses(), ctx.TotalPeakBytes()
	}
	kAcc, kFoot := run(KingsleyConfig(memhier.LayerDRAM))
	lAcc, lFoot := run(LeaConfig(memhier.LayerDRAM))
	if kAcc >= lAcc {
		t.Errorf("kingsley accesses %d not below lea %d", kAcc, lAcc)
	}
	if kFoot <= lFoot {
		t.Errorf("kingsley footprint %d not above lea %d", kFoot, lFoot)
	}
}
