package alloc

import (
	"errors"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/stats"
)

func buddyParams() BuddyPoolParams {
	return BuddyPoolParams{Layer: 0, MinBlock: 64, MaxBlock: 64 * 1024}
}

func TestBuddyParamsValidate(t *testing.T) {
	if err := buddyParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []func(*BuddyPoolParams){
		func(p *BuddyPoolParams) { p.MinBlock = 0 },
		func(p *BuddyPoolParams) { p.MinBlock = 48 },
		func(p *BuddyPoolParams) { p.MinBlock = 8 }, // below header+payload
		func(p *BuddyPoolParams) { p.MaxBlock = 32 },
		func(p *BuddyPoolParams) { p.MaxBlock = 3000 },
		func(p *BuddyPoolParams) { p.MaxBytes = -1 },
	}
	for i, mut := range cases {
		p := buddyParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestBuddyMallocFree(t *testing.T) {
	ctx := testCtx(t)
	p, err := NewBuddyPool(ctx, buddyParams())
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := p.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	// 100+8 header -> 128-byte block.
	if n := blockBytes(p, ptr); n != 128 {
		t.Fatalf("allocated %d, want 128", n)
	}
	if liveCount(p) != 1 {
		t.Fatal("ownership wrong")
	}
	if err := p.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(ptr); err != nil {
		t.Fatalf("free: %v", err)
	}
	if owns(p, ptr) || liveCount(p) != 0 {
		t.Fatal("state after free wrong")
	}
	if err := p.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// After freeing the only allocation, everything must have merged
	// back to a single max-order block.
	byOrder := p.FreeBlocksByOrder()
	for o, n := range byOrder {
		want := 0
		if o == len(byOrder)-1 {
			want = 1
		}
		if n != want {
			t.Fatalf("order %d has %d free blocks, want %d (%v)", o, n, want, byOrder)
		}
	}
}

func TestBuddySplitChain(t *testing.T) {
	ctx := testCtx(t)
	p, _ := NewBuddyPool(ctx, buddyParams())
	// First allocation of the minimum order splits all the way down:
	// one buddy freed at every order below the max.
	ptr, err := p.Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if n := blockBytes(p, ptr); n != 64 {
		t.Fatalf("allocated %d, want min block", n)
	}
	byOrder := p.FreeBlocksByOrder()
	for o := 0; o < len(byOrder)-1; o++ {
		if byOrder[o] != 1 {
			t.Fatalf("order %d has %d free blocks, want 1 (%v)", o, byOrder[o], byOrder)
		}
	}
	if byOrder[len(byOrder)-1] != 0 {
		t.Fatalf("max order occupied: %v", byOrder)
	}
}

func TestBuddyPow2Fragmentation(t *testing.T) {
	ctx := testCtx(t)
	p, _ := NewBuddyPool(ctx, buddyParams())
	// 65-byte payload needs 128-byte block (64+8 > 64+... header): the
	// canonical buddy waste.
	ptr, _ := p.Malloc(57) // 57+8 = 65 > 64
	if n := blockBytes(p, ptr); n != 128 {
		t.Fatalf("allocated %d, want 128", n)
	}
	ptr, _ = p.Malloc(56) // 56+8 = 64: fits min block
	if n := blockBytes(p, ptr); n != 64 {
		t.Fatalf("allocated %d, want 64", n)
	}
}

func TestBuddyOversize(t *testing.T) {
	ctx := testCtx(t)
	p, _ := NewBuddyPool(ctx, buddyParams())
	if _, err := p.Malloc(64 * 1024); !errors.Is(err, ErrBadSize) {
		t.Fatalf("oversize: %v", err)
	}
	if _, err := p.Malloc(0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("zero: %v", err)
	}
}

func TestBuddyBadFree(t *testing.T) {
	ctx := testCtx(t)
	p, _ := NewBuddyPool(ctx, buddyParams())
	if err := p.Free(Ptr{Addr: 0x40}); !errors.Is(err, ErrBadFree) {
		t.Fatalf("bad free: %v", err)
	}
	ptr, _ := p.Malloc(64)
	p.Free(ptr)
	if err := p.Free(ptr); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v", err)
	}
}

func TestBuddyBudget(t *testing.T) {
	ctx := testCtx(t)
	params := buddyParams()
	params.MaxBytes = 64 * 1024 // exactly one arena
	p, _ := NewBuddyPool(ctx, params)
	// Fill the arena with max-order/2 blocks.
	var ptrs []Ptr
	for i := 0; i < 2; i++ {
		ptr, err := p.Malloc(32*1024 - 8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	if _, err := p.Malloc(64); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("budget overrun accepted")
	}
	p.Free(ptrs[0])
	if _, err := p.Malloc(64); err != nil {
		t.Fatalf("post-free alloc: %v", err)
	}
}

func TestBuddyMergeAcrossOrders(t *testing.T) {
	ctx := testCtx(t)
	p, _ := NewBuddyPool(ctx, buddyParams())
	// Allocate four sibling min-blocks, free them all: must merge back.
	var ptrs []Ptr
	for i := 0; i < 4; i++ {
		ptr, err := p.Malloc(48)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	for _, ptr := range ptrs {
		if err := p.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	byOrder := p.FreeBlocksByOrder()
	if byOrder[len(byOrder)-1] != 1 {
		t.Fatalf("full merge failed: %v", byOrder)
	}
}

func TestBuddyStress(t *testing.T) {
	ctx := testCtx(t)
	p, _ := NewBuddyPool(ctx, buddyParams())
	r := stats.NewRNG(404)
	live := make(map[uint64]bool)
	var addrs []Ptr
	for i := 0; i < 5000; i++ {
		if len(addrs) > 0 && r.Bool(0.48) {
			k := r.Intn(len(addrs))
			addr := addrs[k]
			addrs = append(addrs[:k], addrs[k+1:]...)
			delete(live, addr.Addr)
			if err := p.Free(addr); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		} else {
			size := int64(r.Intn(4000)) + 1
			ptr, err := p.Malloc(size)
			if err != nil {
				t.Fatalf("op %d: malloc(%d): %v", i, size, err)
			}
			if n := blockBytes(p, ptr); n < size {
				t.Fatalf("op %d: allocated %d < %d", i, n, size)
			}
			if live[ptr.Addr] {
				t.Fatalf("op %d: duplicate address", i)
			}
			live[ptr.Addr] = true
			addrs = append(addrs, ptr)
		}
	}
	if err := p.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if liveCount(p) != len(live) {
		t.Fatalf("live %d vs %d", liveCount(p), len(live))
	}
	for _, ptr := range addrs {
		if !owns(p, ptr) {
			t.Fatalf("live %+v not found", ptr)
		}
	}
	// Drain and verify full merge per arena.
	for _, addr := range addrs {
		if err := p.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	byOrder := p.FreeBlocksByOrder()
	arenas := len(p.arenas)
	if byOrder[len(byOrder)-1] != arenas {
		t.Fatalf("drained pool not fully merged: %v (%d arenas)", byOrder, arenas)
	}
}

func TestBuddyO1ishAccesses(t *testing.T) {
	// Buddy ops must stay O(log n): bounded accesses regardless of the
	// number of free blocks.
	ctx := testCtx(t)
	p, _ := NewBuddyPool(ctx, buddyParams())
	var ptrs []Ptr
	for i := 0; i < 2000; i++ {
		ptr, err := p.Malloc(48)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	before := ctx.Counters(0).Accesses()
	p.Malloc(48)
	mallocCost := ctx.Counters(0).Accesses() - before
	before = ctx.Counters(0).Accesses()
	p.Free(ptrs[1000])
	freeCost := ctx.Counters(0).Accesses() - before
	// log2(64K/64) = 10 orders; generous bound of 4 accesses per level.
	if mallocCost > 40 || freeCost > 40 {
		t.Fatalf("buddy not O(log n): malloc=%d free=%d", mallocCost, freeCost)
	}
}

func TestBuddyViaConfig(t *testing.T) {
	h := memhier.EmbeddedSoC()
	cfg := Config{
		Label: "buddy",
		General: GeneralConfig{
			Layer:   memhier.LayerDRAM,
			Classes: "buddy:64:65536",
		},
	}
	if err := cfg.Validate(h); err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, h)
	a, err := cfg.Build(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Fallback().(*BuddyPool); !ok {
		t.Fatalf("fallback is %T, want *BuddyPool", a.Fallback())
	}
	r := stats.NewRNG(7)
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
}

func TestBuddyConfigValidation(t *testing.T) {
	h := memhier.EmbeddedSoC()
	bad := Config{General: GeneralConfig{Layer: memhier.LayerDRAM, Classes: "buddy:48:1024"}}
	if err := bad.Validate(h); err == nil {
		t.Fatal("non-pow2 buddy min accepted")
	}
	bad = Config{General: GeneralConfig{Layer: memhier.LayerDRAM, Classes: "buddy:nonsense"}}
	if err := bad.Validate(h); err == nil {
		t.Fatal("garbage buddy spec accepted")
	}
}
