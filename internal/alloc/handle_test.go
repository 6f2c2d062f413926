package alloc

import (
	"errors"
	"testing"
)

// handleSubject adapts an allocator or a pool to the handle-contract
// checks: malloc issues a Ptr, free releases one, live reports whether
// the subject still treats it as a live allocation.
type handleSubject struct {
	malloc func() Ptr
	free   func(Ptr) error
	live   func(Ptr) bool
}

// checkHandleContract verifies that Free accepts only a Ptr the subject
// issued and has not freed: the zero Ptr, a hand-built Ptr of a live
// block, the same block's Ptr from another instance, a double free and
// a stale Ptr whose slot has been reused all return ErrBadFree and leave
// every live allocation intact.
func checkHandleContract(t *testing.T, mk func(t *testing.T) handleSubject) {
	a, b := mk(t), mk(t)
	p, q := a.malloc(), b.malloc()
	if p.Layer != q.Layer || p.Addr != q.Addr {
		t.Fatalf("twin instances issued %+v and %+v; the foreign-Ptr case needs equal addresses", p, q)
	}
	bad := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadFree) {
			t.Errorf("%s: got %v, want ErrBadFree", what, err)
		}
	}
	bad("zero Ptr", a.free(Ptr{}))
	bad("hand-built Ptr", a.free(Ptr{Layer: p.Layer, Addr: p.Addr}))
	bad("foreign Ptr", a.free(q))
	if !a.live(p) || !b.live(q) {
		t.Fatal("a rejected free disturbed a live allocation")
	}
	if a.live(Ptr{Layer: p.Layer, Addr: p.Addr}) || a.live(q) {
		t.Error("a hand-built or foreign Ptr reported live")
	}

	if err := a.free(p); err != nil {
		t.Fatalf("free: %v", err)
	}
	if a.live(p) {
		t.Error("freed Ptr still reported live")
	}
	bad("double free", a.free(p))

	p2 := a.malloc()
	if p2.Addr != p.Addr {
		t.Fatalf("reallocation landed at %#x, not the freed %#x; the stale case needs reuse", p2.Addr, p.Addr)
	}
	bad("stale Ptr", a.free(p))
	if a.live(p) || !a.live(p2) {
		t.Error("stale Ptr confused with its slot's new allocation")
	}
	if err := a.free(p2); err != nil {
		t.Fatalf("free of the reallocation: %v", err)
	}
	if err := b.free(q); err != nil {
		t.Fatalf("free on the twin: %v", err)
	}
}

// allocSubject adapts a pool or a Composed, whose liveness owns reads
// from its tables.
func allocSubject(t *testing.T, a Allocator, size int64) handleSubject {
	return handleSubject{
		malloc: func() Ptr {
			p, err := a.Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		free: a.Free,
		live: func(p Ptr) bool { return owns(a, p) },
	}
}

// composedSubject adapts the test allocator, routing size to the fixed
// pool (74) or the general pool (anything else).
func composedSubject(t *testing.T, size int64) handleSubject {
	a, _ := buildTestAllocator(t, 64*1024)
	return allocSubject(t, a, size)
}

func TestHandleContractComposed(t *testing.T) {
	t.Run("fixed", func(t *testing.T) {
		checkHandleContract(t, func(t *testing.T) handleSubject { return composedSubject(t, 74) })
	})
	t.Run("general", func(t *testing.T) {
		checkHandleContract(t, func(t *testing.T) handleSubject { return composedSubject(t, 200) })
	})
}

// TestComposedRejectsMisroutedPtr covers the Composed's own dispatch:
// it keeps no table, so the pool index in a Ptr's handle picks the pool
// and that pool's check must catch every Ptr it did not issue through
// this Composed. Each case returns ErrBadFree and leaves the live
// allocations intact: each of those then frees once, and only once.
func TestComposedRejectsMisroutedPtr(t *testing.T) {
	a, _ := buildTestAllocator(t, 64*1024)
	other, _ := buildTestAllocator(t, 64*1024)
	malloc := func(a *Composed, size int64) Ptr {
		t.Helper()
		p, err := a.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fixedPtr, generalPtr := malloc(a, 74), malloc(a, 200)

	fromFallback, err := a.general.Malloc(200)
	if err != nil {
		t.Fatal(err)
	}
	fromFixed, err := a.fixed[0].Malloc(74)
	if err != nil {
		t.Fatal(err)
	}
	forged := fixedPtr
	forged.h.pool = generalPtr.h.pool // a live fixed slot sent to the general pool
	outOfRange := generalPtr
	outOfRange.h.pool++

	stale := malloc(a, 200)
	if err := a.Free(stale); err != nil {
		t.Fatal(err)
	}
	reused := malloc(a, 200)
	if reused.Addr != stale.Addr || reused.h.slot != stale.h.slot {
		t.Fatalf("reallocation landed at %#x slot %d, not the freed %#x slot %d; the stale case needs reuse",
			reused.Addr, reused.h.slot, stale.Addr, stale.h.slot)
	}
	foreign := malloc(other, 74)
	if foreign.Addr != fixedPtr.Addr {
		t.Fatalf("twin allocators issued %#x and %#x; the foreign case needs equal addresses", foreign.Addr, fixedPtr.Addr)
	}

	for _, c := range []struct {
		name string
		p    Ptr
	}{
		{"Fallback() Ptr", fromFallback},
		{"FixedPools()[0] Ptr", fromFixed},
		{"forged pool index", forged},
		{"out-of-range pool index", outOfRange},
		{"freed and reused slot", stale},
		{"another Composed's Ptr", foreign},
	} {
		if err := a.Free(c.p); !errors.Is(err, ErrBadFree) {
			t.Errorf("%s: got %v, want ErrBadFree", c.name, err)
		}
	}
	for _, p := range []Ptr{fixedPtr, generalPtr, reused} {
		if err := a.Free(p); err != nil {
			t.Fatalf("a rejected free disturbed live %+v: %v", p, err)
		}
		if err := a.Free(p); !errors.Is(err, ErrBadFree) {
			t.Errorf("second free of %+v: got %v, want ErrBadFree", p, err)
		}
	}
}

func TestHandleContractFixedPool(t *testing.T) {
	checkHandleContract(t, func(t *testing.T) handleSubject {
		p, err := NewFixedPool(testCtx(t), fixedParams())
		if err != nil {
			t.Fatal(err)
		}
		return allocSubject(t, p, 74)
	})
}

func TestHandleContractGeneralPool(t *testing.T) {
	checkHandleContract(t, func(t *testing.T) handleSubject {
		_, p := newGP(t, nil)
		return allocSubject(t, p, 100)
	})
}

func TestHandleContractBuddyPool(t *testing.T) {
	checkHandleContract(t, func(t *testing.T) handleSubject {
		p, err := NewBuddyPool(testCtx(t), buddyParams())
		if err != nil {
			t.Fatal(err)
		}
		return allocSubject(t, p, 100)
	})
}

// TestOutOfMemoryErrorIsAllocationFree pins the out-of-memory error's
// shape: it matches ErrOutOfMemory, builds its message on demand, and
// neither a budget-exhausted nor a layer-full malloc allocates.
func TestOutOfMemoryErrorIsAllocationFree(t *testing.T) {
	ctx := twoLayerCtx(t, 1024)
	full, err := NewFixedPool(ctx, FixedPoolParams{
		Layer: 0, SlotBytes: 256, MatchLo: 256, MatchHi: 256,
		Order: LIFO, Links: SingleLink, Growth: GrowFixedChunk, ChunkSlots: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := fixedParams()
	params.Layer = 1
	params.MaxBytes = 8 * 80
	capped, err := NewFixedPool(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pool *FixedPool
		size int64
		msg  string
	}{
		{full, 256, "alloc: out of memory: layer capacity exhausted"},
		{capped, 74, "alloc: out of memory: fixed pool budget exhausted"},
	} {
		for {
			if _, err = c.pool.Malloc(c.size); err != nil {
				break
			}
		}
		if !errors.Is(err, ErrOutOfMemory) || err.Error() != c.msg {
			t.Fatalf("got %v, want %q wrapping ErrOutOfMemory", err, c.msg)
		}
		if n := testing.AllocsPerRun(10, func() { c.pool.Malloc(c.size) }); n != 0 {
			t.Errorf("%s: failing malloc allocates %.1f times", c.msg, n)
		}
	}
}

// TestFixedPoolRejectsReclaimedOrdinal covers the fixed pool's handle
// check, which finds a slot from the page ordinal in its Ptr: a Ptr into
// an arena that was reclaimed, whose page ordinal a new arena now
// carries, and a live Ptr with its slot ordinal or address forged, all
// return ErrBadFree, are not found, and leave the live slots intact.
func TestFixedPoolRejectsReclaimedOrdinal(t *testing.T) {
	params := fixedParams()
	params.ChunkSlots = slotPageLen // one page an arena
	params.Reclaim = true
	p, err := NewFixedPool(testCtx(t), params)
	if err != nil {
		t.Fatal(err)
	}
	malloc := func() Ptr {
		t.Helper()
		ptr, err := p.Malloc(74)
		if err != nil {
			t.Fatal(err)
		}
		return ptr
	}
	var first, second []Ptr
	for i := 0; i < slotPageLen; i++ {
		first = append(first, malloc())
	}
	for i := 0; i < slotPageLen; i++ {
		second = append(second, malloc())
	}
	for _, ptr := range first {
		if err := p.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	if p.Reclaims() != 1 {
		t.Fatalf("%d reclaims after freeing the first arena, want 1", p.Reclaims())
	}
	// The second arena is full and the first is gone, so the next slots
	// come from a third arena, under the first one's page ordinal.
	third := []Ptr{malloc(), malloc(), malloc()}
	for i, ptr := range third {
		if ptr.h.slot != first[i].h.slot {
			t.Fatalf("new slot %d has ordinal %d, not the reclaimed %d; the reuse case needs it", i, ptr.h.slot, first[i].h.slot)
		}
	}
	// A freed slot holds its ordinal in place of a tag.
	freed := third[2]
	third = third[:2]
	if err := p.Free(freed); err != nil {
		t.Fatal(err)
	}
	forgedSlot := second[0]
	forgedSlot.h.slot = second[1].h.slot
	forgedAddr := second[0]
	forgedAddr.Addr = second[1].Addr
	for _, c := range []struct {
		name string
		ptr  Ptr
	}{
		{"reclaimed arena, ordinal reused and live", first[0]},
		{"reclaimed arena, ordinal reused and not yet carved", first[slotPageLen-1]},
		{"forged slot ordinal", forgedSlot},
		{"forged address", forgedAddr},
		{"ordinal past the page table", Ptr{Layer: second[0].Layer, Addr: second[0].Addr, h: handle{slot: 1 << 20, tag: second[0].h.tag}}},
		{"a free slot's ordinal as tag", Ptr{Layer: freed.Layer, Addr: freed.Addr, h: handle{slot: freed.h.slot, tag: uint64(freed.h.slot)}}},
		{"freed slot", freed},
	} {
		if err := p.Free(c.ptr); !errors.Is(err, ErrBadFree) {
			t.Errorf("%s: got %v, want ErrBadFree", c.name, err)
		}
		if owns(p, c.ptr) {
			t.Errorf("%s: found live", c.name)
		}
	}
	for _, ptr := range append(second, third...) {
		if !owns(p, ptr) {
			t.Fatalf("a rejected free disturbed live %+v", ptr)
		}
	}
	if n := liveCount(p); n != slotPageLen+len(third) {
		t.Fatalf("%d live slots, want %d", n, slotPageLen+len(third))
	}
}
