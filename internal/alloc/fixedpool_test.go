package alloc

import (
	"errors"
	"testing"

	"dmexplore/internal/simheap"
)

func fixedParams() FixedPoolParams {
	return FixedPoolParams{
		Layer: 0, SlotBytes: 74, MatchLo: 74, MatchHi: 74,
		Order: LIFO, Links: SingleLink, Growth: GrowFixedChunk,
		ChunkSlots: 8,
	}
}

func TestFixedPoolParamsValidate(t *testing.T) {
	ok := fixedParams()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []func(*FixedPoolParams){
		func(p *FixedPoolParams) { p.SlotBytes = 0 },
		func(p *FixedPoolParams) { p.MatchLo = 0 },
		func(p *FixedPoolParams) { p.MatchHi = p.MatchLo - 1 },
		func(p *FixedPoolParams) { p.MatchHi = p.SlotBytes + 1 },
		func(p *FixedPoolParams) { p.Order = ListOrder(99) },
		func(p *FixedPoolParams) { p.ChunkSlots = 0 },
		func(p *FixedPoolParams) { p.MaxBytes = -1 },
	}
	for i, mut := range cases {
		p := fixedParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestFixedPoolMallocFree(t *testing.T) {
	ctx := testCtx(t)
	p, err := NewFixedPool(ctx, fixedParams())
	if err != nil {
		t.Fatal(err)
	}
	if p.SlotBytes() != 80 { // 74 rounded to 8-byte words
		t.Fatalf("slot bytes %d", p.SlotBytes())
	}
	ptr, err := p.Malloc(74)
	if err != nil {
		t.Fatal(err)
	}
	if n := blockBytes(p, ptr); n != 80 {
		t.Fatalf("allocated %d", n)
	}
	if liveCount(p) != 1 {
		t.Fatal("ownership wrong")
	}
	if err := p.Free(ptr); err != nil {
		t.Fatalf("free: %v", err)
	}
	if owns(p, ptr) || liveCount(p) != 0 || p.FreeSlots() != 1 {
		t.Fatal("state after free wrong")
	}
}

func TestFixedPoolRecyclesSlots(t *testing.T) {
	ctx := testCtx(t)
	p, _ := NewFixedPool(ctx, fixedParams())
	ptr, _ := p.Malloc(74)
	p.Free(ptr)
	ptr2, _ := p.Malloc(74)
	if ptr2.Addr != ptr.Addr {
		t.Fatalf("LIFO pool did not recycle: %#x vs %#x", ptr2.Addr, ptr.Addr)
	}
	if p.ArenaBytes() != 8*80 {
		t.Fatalf("arena grew unnecessarily: %d", p.ArenaBytes())
	}
}

func TestFixedPoolGrowth(t *testing.T) {
	ctx := testCtx(t)
	p, _ := NewFixedPool(ctx, fixedParams())
	for i := 0; i < 9; i++ { // one more than a chunk
		if _, err := p.Malloc(74); err != nil {
			t.Fatal(err)
		}
	}
	if p.ArenaBytes() != 2*8*80 {
		t.Fatalf("arena bytes %d, want two chunks", p.ArenaBytes())
	}
}

func TestFixedPoolDoubleGrowth(t *testing.T) {
	ctx := testCtx(t)
	params := fixedParams()
	params.Growth = GrowDouble
	p, _ := NewFixedPool(ctx, params)
	for i := 0; i < 8+16+1; i++ {
		if _, err := p.Malloc(74); err != nil {
			t.Fatal(err)
		}
	}
	// Chunks of 8, 16, 32 slots.
	if p.ArenaBytes() != int64(8+16+32)*80 {
		t.Fatalf("arena bytes %d", p.ArenaBytes())
	}
}

func TestFixedPoolBudget(t *testing.T) {
	ctx := testCtx(t)
	params := fixedParams()
	params.MaxBytes = 4 * 80 // room for 4 slots despite ChunkSlots=8
	p, _ := NewFixedPool(ctx, params)
	for i := 0; i < 4; i++ {
		if _, err := p.Malloc(74); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	_, err := p.Malloc(74)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("budget overrun error: %v", err)
	}
}

func TestFixedPoolLayerCapacity(t *testing.T) {
	// Scratchpad of 512 bytes: metadata (4 words) + 8-slot chunk of 80B
	// does not fit; allocation must fail with OOM.
	ctx := twoLayerCtx(t, 512)
	p, err := NewFixedPool(ctx, fixedParams())
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Malloc(74)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want OOM on full scratchpad, got %v", err)
	}
}

func TestFixedPoolRejects(t *testing.T) {
	ctx := testCtx(t)
	p, _ := NewFixedPool(ctx, fixedParams())
	if _, err := p.Malloc(0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("size 0: %v", err)
	}
	if _, err := p.Malloc(100); !errors.Is(err, ErrBadSize) {
		t.Fatalf("oversize: %v", err)
	}
	if err := p.Free(Ptr{Addr: 0xdead}); !errors.Is(err, ErrBadFree) {
		t.Fatalf("bad free: %v", err)
	}
	ptr, _ := p.Malloc(74)
	p.Free(ptr)
	if err := p.Free(ptr); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v", err)
	}
}

func TestFixedPoolMatches(t *testing.T) {
	ctx := testCtx(t)
	params := fixedParams()
	params.MatchLo, params.MatchHi = 64, 74
	p, _ := NewFixedPool(ctx, params)
	for _, c := range []struct {
		size int64
		want bool
	}{{63, false}, {64, true}, {74, true}, {75, false}} {
		if got := p.Matches(c.size); got != c.want {
			t.Errorf("Matches(%d) = %v", c.size, got)
		}
	}
}

func TestFixedPoolO1Accesses(t *testing.T) {
	// The cost of malloc/free must not grow with the number of live or
	// freed slots — the whole point of a dedicated pool.
	ctx := testCtx(t)
	params := fixedParams()
	params.ChunkSlots = 1024
	p, _ := NewFixedPool(ctx, params)
	var ptrs []Ptr
	for i := 0; i < 1000; i++ {
		ptr, err := p.Malloc(74)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	before := ctx.Counters(0).Accesses()
	p.Free(ptrs[500])
	freeCost := ctx.Counters(0).Accesses() - before

	before = ctx.Counters(0).Accesses()
	if _, err := p.Malloc(74); err != nil {
		t.Fatal(err)
	}
	mallocCost := ctx.Counters(0).Accesses() - before

	if freeCost > 4 || mallocCost > 4 {
		t.Fatalf("fixed pool not O(1): free=%d malloc=%d accesses", freeCost, mallocCost)
	}
	_ = simheap.WordSize
}
