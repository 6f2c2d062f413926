package alloc

import (
	"testing"

	"dmexplore/internal/stats"
)

func reclaimParams() FixedPoolParams {
	p := fixedParams()
	p.Reclaim = true
	p.ChunkSlots = 4
	return p
}

func TestReclaimReleasesEmptyChunk(t *testing.T) {
	ctx := testCtx(t)
	p, err := NewFixedPool(ctx, reclaimParams())
	if err != nil {
		t.Fatal(err)
	}
	// Fill two chunks.
	var ptrs []Ptr
	for i := 0; i < 8; i++ {
		ptr, err := p.Malloc(74)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	if p.ArenaBytes() != 2*4*80 {
		t.Fatalf("arena bytes %d", p.ArenaBytes())
	}
	// Free the first chunk's slots: it must be reclaimed (it is not the
	// bump arena).
	for _, ptr := range ptrs[:4] {
		if err := p.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	if p.Reclaims() != 1 {
		t.Fatalf("reclaims %d", p.Reclaims())
	}
	if p.ArenaBytes() != 4*80 {
		t.Fatalf("arena bytes after reclaim %d", p.ArenaBytes())
	}
	// The reclaimed slots must be gone from the free list.
	if p.FreeSlots() != 0 {
		t.Fatalf("free slots %d after reclaim", p.FreeSlots())
	}
	// Allocating again must work (new chunk or bump arena).
	if _, err := p.Malloc(74); err != nil {
		t.Fatal(err)
	}
}

func TestReclaimSparesBumpArena(t *testing.T) {
	ctx := testCtx(t)
	p, _ := NewFixedPool(ctx, reclaimParams())
	// One chunk only: freeing everything must NOT reclaim it (it is the
	// carving frontier).
	ptr, _ := p.Malloc(74)
	p.Free(ptr)
	if p.Reclaims() != 0 {
		t.Fatal("bump arena reclaimed")
	}
	if p.ArenaBytes() == 0 {
		t.Fatal("arena released")
	}
}

func TestReclaimOffKeepsChunks(t *testing.T) {
	ctx := testCtx(t)
	params := reclaimParams()
	params.Reclaim = false
	p, _ := NewFixedPool(ctx, params)
	var ptrs []Ptr
	for i := 0; i < 8; i++ {
		ptr, _ := p.Malloc(74)
		ptrs = append(ptrs, ptr)
	}
	for _, ptr := range ptrs {
		p.Free(ptr)
	}
	if p.Reclaims() != 0 || p.ArenaBytes() != 2*4*80 {
		t.Fatalf("non-reclaiming pool released memory: %d bytes, %d reclaims",
			p.ArenaBytes(), p.Reclaims())
	}
}

func TestReclaimCutsFootprintAfterBurst(t *testing.T) {
	// A burst fills many chunks; after the burst drains, the reclaiming
	// pool's footprint must fall back while the keeping pool stays at
	// peak.
	run := func(reclaim bool) (peak, final int64) {
		ctx := testCtx(t)
		params := reclaimParams()
		params.Reclaim = reclaim
		params.ChunkSlots = 16
		p, err := NewFixedPool(ctx, params)
		if err != nil {
			t.Fatal(err)
		}
		var ptrs []Ptr
		for i := 0; i < 320; i++ {
			ptr, err := p.Malloc(74)
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, ptr)
		}
		peak = p.ArenaBytes()
		for _, ptr := range ptrs {
			p.Free(ptr)
		}
		return peak, p.ArenaBytes()
	}
	peakR, finalR := run(true)
	peakK, finalK := run(false)
	if peakR != peakK {
		t.Fatalf("peaks differ: %d vs %d", peakR, peakK)
	}
	if finalR >= finalK {
		t.Fatalf("reclaim did not reduce steady footprint: %d vs %d", finalR, finalK)
	}
	if finalR > peakR/4 {
		t.Fatalf("reclaimed pool kept %d of %d bytes", finalR, peakR)
	}
}

func TestReclaimStress(t *testing.T) {
	ctx := testCtx(t)
	params := reclaimParams()
	params.ChunkSlots = 8
	p, _ := NewFixedPool(ctx, params)
	r := stats.NewRNG(99)
	live := make(map[uint64]bool)
	var addrs []Ptr
	for i := 0; i < 8000; i++ {
		if len(addrs) > 0 && r.Bool(0.5) {
			k := r.Intn(len(addrs))
			addr := addrs[k]
			addrs = append(addrs[:k], addrs[k+1:]...)
			delete(live, addr.Addr)
			if err := p.Free(addr); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		} else {
			ptr, err := p.Malloc(74)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if live[ptr.Addr] {
				t.Fatalf("op %d: duplicate slot %#x", i, ptr.Addr)
			}
			live[ptr.Addr] = true
			addrs = append(addrs, ptr)
		}
	}
	if liveCount(p) != len(live) {
		t.Fatalf("live %d vs %d", liveCount(p), len(live))
	}
	// Consistency: every live slot must still be owned.
	for _, ptr := range addrs {
		if !owns(p, ptr) {
			t.Fatalf("live slot %#x lost", ptr.Addr)
		}
	}
}

func TestReclaimChargesUnlinkWork(t *testing.T) {
	// Reclaiming a chunk must cost accesses (unlinking its slots), not be
	// free — the trade-off the reclaim axis explores.
	ctx := testCtx(t)
	params := reclaimParams()
	params.ChunkSlots = 16
	p, _ := NewFixedPool(ctx, params)
	var ptrs []Ptr
	for i := 0; i < 32; i++ {
		ptr, _ := p.Malloc(74)
		ptrs = append(ptrs, ptr)
	}
	// Free first chunk except one slot.
	for _, ptr := range ptrs[:15] {
		p.Free(ptr)
	}
	before := ctx.Counters(0).Accesses()
	p.Free(ptrs[15]) // triggers reclamation of chunk 1
	cost := ctx.Counters(0).Accesses() - before
	if p.Reclaims() != 1 {
		t.Fatalf("reclaims %d", p.Reclaims())
	}
	if cost < 16 {
		t.Fatalf("reclaim charged only %d accesses for 16 slots", cost)
	}
}
