package alloc

import (
	"errors"
	"testing"

	"dmexplore/internal/simheap"
	"dmexplore/internal/stats"
)

func gpParams() GeneralPoolParams {
	return GeneralPoolParams{
		Layer:      0,
		Classes:    SingleClass{},
		Fit:        FirstFit,
		Order:      LIFO,
		Links:      SingleLink,
		Split:      SplitAlways,
		Coalesce:   CoalesceImmediate,
		Headers:    HeaderBoundaryTag,
		Growth:     GrowFixedChunk,
		ChunkBytes: 4096,
	}
}

func newGP(t *testing.T, mut func(*GeneralPoolParams)) (*simheap.Context, *GeneralPool) {
	t.Helper()
	ctx := testCtx(t)
	params := gpParams()
	if mut != nil {
		mut(&params)
	}
	p, err := NewGeneralPool(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, p
}

func TestGeneralPoolParamsValidate(t *testing.T) {
	if err := gpParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []func(*GeneralPoolParams){
		func(p *GeneralPoolParams) { p.Classes = nil },
		func(p *GeneralPoolParams) { p.Fit = FitPolicy(99) },
		func(p *GeneralPoolParams) { p.Split = SplitThreshold; p.SplitThreshold = 0 },
		func(p *GeneralPoolParams) { p.Coalesce = CoalesceDeferred; p.CoalesceEvery = 0 },
		func(p *GeneralPoolParams) { p.ChunkBytes = 64 },
		func(p *GeneralPoolParams) { p.MaxBytes = -1 },
	}
	for i, mut := range cases {
		params := gpParams()
		mut(&params)
		if err := params.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestGeneralPoolMallocFree(t *testing.T) {
	ctx, p := newGP(t, nil)
	ptr, err := p.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if n := blockBytes(p, ptr); n < 100 {
		t.Fatalf("allocated %d < requested", n)
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
	if ctx.Counters(0).Accesses() == 0 {
		t.Fatal("no accesses charged")
	}
}

func TestGeneralPoolBadOps(t *testing.T) {
	_, p := newGP(t, nil)
	if _, err := p.Malloc(0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("size 0: %v", err)
	}
	if _, err := p.Malloc(-5); !errors.Is(err, ErrBadSize) {
		t.Fatalf("negative: %v", err)
	}
	if err := p.Free(Ptr{Addr: 0xbeef}); !errors.Is(err, ErrBadFree) {
		t.Fatalf("bad free: %v", err)
	}
	ptr, _ := p.Malloc(64)
	p.Free(ptr)
	if err := p.Free(ptr); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v", err)
	}
}

func TestGeneralPoolSplitReusesRemainder(t *testing.T) {
	_, p := newGP(t, nil)
	// One chunk is 4096; allocating 1000 with SplitAlways leaves a big
	// remainder that must serve the next allocation without growth.
	p.Malloc(1000)
	p.Malloc(1000)
	p.Malloc(1000)
	if p.ArenaBytes() != 4096 {
		t.Fatalf("arena bytes %d, want one chunk", p.ArenaBytes())
	}
	if err := p.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralPoolNoSplitWastes(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) { g.Split = SplitNever })
	// Without splitting, the 4096-byte chunk is consumed whole.
	ptr, err := p.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if n := blockBytes(p, ptr); n != 4096 {
		t.Fatalf("allocated %d, want whole chunk", n)
	}
	p.Malloc(100) // must trigger a second chunk
	if p.ArenaBytes() != 8192 {
		t.Fatalf("arena bytes %d", p.ArenaBytes())
	}
}

func TestGeneralPoolSplitThreshold(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) {
		g.Split = SplitThreshold
		g.SplitThreshold = 2048
	})
	// Remainder after a 1000-byte alloc is ~3080 >= 2048: split happens.
	p1, _ := p.Malloc(1000)
	if a1 := blockBytes(p, p1); a1 > 1100 {
		t.Fatalf("big remainder not split: %d", a1)
	}
	// Now free block ~3080; allocating 2000 leaves ~1080 < 2048: no split.
	p2, _ := p.Malloc(2000)
	if a2 := blockBytes(p, p2); a2 < 3000 {
		t.Fatalf("small remainder split anyway: %d", a2)
	}
}

func TestGeneralPoolCoalesceImmediate(t *testing.T) {
	_, p := newGP(t, nil)
	p1, _ := p.Malloc(512)
	p2, _ := p.Malloc(512)
	p3, _ := p.Malloc(512)
	p.Free(p1)
	p.Free(p2) // must merge backward with p1's block
	p.Free(p3) // must merge with the p1+p2 block and the tail
	// Everything coalesced back: exactly one free block spanning the arena.
	if n := p.FreeBlocks(); n != 1 {
		t.Fatalf("free blocks %d, want 1 (coalesced)", n)
	}
	if err := p.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// The whole chunk is available again for a large allocation.
	if _, err := p.Malloc(3500); err != nil {
		t.Fatal(err)
	}
	if p.ArenaBytes() != 4096 {
		t.Fatalf("arena grew: %d", p.ArenaBytes())
	}
}

func TestGeneralPoolCoalesceNeverFragments(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) { g.Coalesce = CoalesceNever })
	var ptrs []Ptr
	for i := 0; i < 7; i++ {
		ptr, _ := p.Malloc(500)
		ptrs = append(ptrs, ptr)
	}
	for _, ptr := range ptrs {
		p.Free(ptr)
	}
	if n := p.FreeBlocks(); n < 7 {
		t.Fatalf("free blocks %d, want >= 7 (uncoalesced)", n)
	}
	// A 3500-byte allocation cannot be satisfied from the fragments: the
	// pool must grow even though total free space is plentiful.
	before := p.ArenaBytes()
	if _, err := p.Malloc(3500); err != nil {
		t.Fatal(err)
	}
	if p.ArenaBytes() <= before {
		t.Fatal("fragmented pool did not grow")
	}
	if err := p.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralPoolCoalesceForwardOnlyWithMinimalHeaders(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) { g.Headers = HeaderMinimal })
	p1, _ := p.Malloc(512)
	p2, _ := p.Malloc(512)
	p.Malloc(512) // plug so the tail free block is not adjacent
	// Free p1 then p2: forward merge would need p2 -> p1 direction
	// (backward), impossible with minimal headers.
	p.Free(p1)
	p.Free(p2)
	if n := p.FreeBlocks(); n < 2 {
		t.Fatalf("minimal headers merged backward: %d free blocks", n)
	}

	// Now the opposite order on fresh allocations: freeing the earlier
	// block second merges forward into the later one.
	_, q := newGP(t, func(g *GeneralPoolParams) { g.Headers = HeaderMinimal })
	q1, _ := q.Malloc(512)
	q2, _ := q.Malloc(512)
	q.Malloc(512)
	q.Free(q2)
	q.Free(q1)                       // q1 merges forward with q2's block
	if n := q.FreeBlocks(); n != 2 { // merged block + arena tail
		t.Fatalf("forward merge failed: %d free blocks", n)
	}
}

func TestGeneralPoolCoalesceDeferred(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) {
		g.Coalesce = CoalesceDeferred
		g.CoalesceEvery = 4
	})
	var ptrs []Ptr
	for i := 0; i < 4; i++ {
		ptr, _ := p.Malloc(500)
		ptrs = append(ptrs, ptr)
	}
	p.Free(ptrs[0])
	p.Free(ptrs[1])
	p.Free(ptrs[2])
	if n := p.FreeBlocks(); n < 3 {
		t.Fatalf("deferred mode merged early: %d", n)
	}
	p.Free(ptrs[3]) // 4th free triggers the sweep
	if n := p.FreeBlocks(); n != 1 {
		t.Fatalf("sweep did not coalesce: %d free blocks", n)
	}
	if err := p.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralPoolRoundToClass(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) {
		classes, err := NewPow2Classes(16, 4096)
		if err != nil {
			t.Fatal(err)
		}
		g.Classes = classes
		g.Fit = ExactFit
		g.Split = SplitNever
		g.Coalesce = CoalesceNever
		g.Headers = HeaderMinimal
		g.RoundToClass = true
	})
	ptr, err := p.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	// 100 rounds to 128 plus one header word.
	if n := blockBytes(p, ptr); n != 128+simheap.WordSize {
		t.Fatalf("allocated %d, want %d", n, 128+simheap.WordSize)
	}
}

func TestGeneralPoolSegregatedReuse(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) {
		classes, err := NewPow2Classes(16, 4096)
		if err != nil {
			t.Fatal(err)
		}
		g.Classes = classes
		g.Fit = ExactFit
		g.Split = SplitNever
		g.Coalesce = CoalesceNever
		g.RoundToClass = true
	})
	ptr, _ := p.Malloc(100)
	p.Free(ptr)
	ptr2, err := p.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if ptr2.Addr != ptr.Addr {
		t.Fatalf("class bin did not recycle: %#x vs %#x", ptr2.Addr, ptr.Addr)
	}
}

func TestGeneralPoolEscalatesToLargerBin(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) {
		classes, err := NewPow2Classes(16, 4096)
		if err != nil {
			t.Fatal(err)
		}
		g.Classes = classes
		g.Fit = ExactFit // home bin is exact, escalation is first-fit
		g.Split = SplitAlways
		g.Coalesce = CoalesceNever
	})
	// Free a 1024-class block, then allocate 100: home bin (128) is
	// empty, so the allocator must split the 1024 block rather than grow.
	big, _ := p.Malloc(1000)
	before := p.ArenaBytes()
	p.Free(big)
	if _, err := p.Malloc(100); err != nil {
		t.Fatal(err)
	}
	if p.ArenaBytes() != before {
		t.Fatal("escalation failed: pool grew")
	}
}

func TestGeneralPoolBudgetExhaustion(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) { g.MaxBytes = 8192 })
	var live []Ptr
	for {
		ptr, err := p.Malloc(1024)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("unexpected error %v", err)
			}
			break
		}
		live = append(live, ptr)
		if len(live) > 16 {
			t.Fatal("budget never enforced")
		}
	}
	// Approximately 7 × 1KB fit into 8KB with overhead.
	if len(live) < 6 {
		t.Fatalf("only %d allocations before OOM", len(live))
	}
	// Freeing and reallocating within the budget must succeed.
	p.Free(live[0])
	if _, err := p.Malloc(512); err != nil {
		t.Fatalf("post-free alloc failed: %v", err)
	}
}

func TestGeneralPoolLayerCapacityOOM(t *testing.T) {
	ctx := twoLayerCtx(t, 2048)
	params := gpParams() // layer 0 = 2KB scratchpad, chunk 4KB
	_, err := NewGeneralPool(ctx, params)
	if err != nil {
		t.Fatal(err) // metadata fits
	}
	p, _ := NewGeneralPool(ctx, params)
	if _, err := p.Malloc(64); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want OOM, got %v", err)
	}
}

func TestGeneralPoolOversizeRequest(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) {
		classes, err := NewPow2Classes(16, 256)
		if err != nil {
			t.Fatal(err)
		}
		g.Classes = classes
	})
	// Request above the largest class routes to the last bin and grows.
	ptr, err := p.Malloc(10000)
	if err != nil {
		t.Fatal(err)
	}
	if n := blockBytes(p, ptr); n < 10000 {
		t.Fatalf("allocated %d", n)
	}
	if err := p.Free(ptr); err != nil {
		t.Fatal(err)
	}
	if err := p.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralPoolGrowDouble(t *testing.T) {
	_, p := newGP(t, func(g *GeneralPoolParams) {
		g.Growth = GrowDouble
		g.Split = SplitNever
		g.Coalesce = CoalesceNever
	})
	p.Malloc(4000) // chunk 1: 4096
	p.Malloc(4000) // chunk 2: 8192
	p.Malloc(4000) // fits in chunk 2 remainder? No: SplitNever consumed it. chunk 3: 16384
	if p.ArenaBytes() != 4096+8192+16384 {
		t.Fatalf("arena bytes %d", p.ArenaBytes())
	}
}

// Randomized stress: any policy combination must preserve heap invariants
// and never lose or duplicate blocks.
func TestGeneralPoolStressAllPolicies(t *testing.T) {
	fits := []FitPolicy{FirstFit, NextFit, BestFit, WorstFit}
	orders := []ListOrder{LIFO, FIFO, AddrOrder}
	links := []ListLinks{SingleLink, DoubleLink}
	coalesce := []CoalesceMode{CoalesceNever, CoalesceImmediate, CoalesceDeferred}
	splits := []SplitMode{SplitNever, SplitAlways, SplitThreshold}
	headers := []HeaderMode{HeaderMinimal, HeaderBoundaryTag}

	rng := stats.NewRNG(2024)
	for _, fit := range fits {
		for _, co := range coalesce {
			for _, sp := range splits {
				// Sample the remaining axes to keep the matrix tractable.
				order := orders[rng.Intn(len(orders))]
				link := links[rng.Intn(len(links))]
				hdr := headers[rng.Intn(len(headers))]
				name := fit.String() + "/" + co.String() + "/" + sp.String()
				t.Run(name, func(t *testing.T) {
					_, p := newGP(t, func(g *GeneralPoolParams) {
						g.Fit = fit
						g.Order = order
						g.Links = link
						g.Coalesce = co
						g.CoalesceEvery = 8
						g.Split = sp
						g.SplitThreshold = 64
						g.Headers = hdr
					})
					r := stats.NewRNG(uint64(fit)*100 + uint64(co)*10 + uint64(sp))
					live := make(map[uint64]bool)
					var addrs []Ptr
					for i := 0; i < 2000; i++ {
						if len(addrs) > 0 && r.Bool(0.45) {
							k := r.Intn(len(addrs))
							addr := addrs[k]
							addrs = append(addrs[:k], addrs[k+1:]...)
							delete(live, addr.Addr)
							if err := p.Free(addr); err != nil {
								t.Fatalf("op %d: free: %v", i, err)
							}
						} else {
							size := int64(r.Intn(900)) + 1
							ptr, err := p.Malloc(size)
							if err != nil {
								t.Fatalf("op %d: malloc(%d): %v", i, size, err)
							}
							if live[ptr.Addr] {
								t.Fatalf("op %d: duplicate address %#x", i, ptr.Addr)
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
				})
			}
		}
	}
}
