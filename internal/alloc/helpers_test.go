package alloc

import (
	"fmt"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// owns reports whether pool treats ptr as one of its live allocations:
// whether the lookup its Free starts with finds ptr in its own tables.
func owns(pool any, ptr Ptr) bool {
	return blockBytes(pool, ptr) > 0
}

// blockBytes returns the bytes of the block backing the live allocation
// ptr of pool (a *FixedPool, *GeneralPool, *BuddyPool or *Composed), or
// 0 when pool's own lookup does not find ptr.
func blockBytes(pool any, ptr Ptr) int64 {
	switch p := pool.(type) {
	case *FixedPool:
		if _, b := p.lookup(ptr); b != nil {
			return b.size
		}
	case *GeneralPool:
		if b := p.lookup(ptr); b != nil {
			return b.size
		}
	case *BuddyPool:
		if b := p.lookup(ptr); b != nil {
			return p.blockSize(b.order)
		}
	case *Composed:
		if i, inner, ok := p.route(ptr); ok {
			if i < len(p.fixed) {
				return blockBytes(p.fixed[i], inner)
			}
			return blockBytes(p.general, inner)
		}
	default:
		panic(fmt.Sprintf("blockBytes of %T", pool))
	}
	return 0
}

// liveCount returns the number of live allocations in the tables of
// pool (a *FixedPool, *GeneralPool or *BuddyPool).
func liveCount(pool any) int {
	n := 0
	switch p := pool.(type) {
	case *FixedPool:
		for _, a := range p.arenas {
			n += a.live
		}
	case *GeneralPool:
		n = p.live.count()
	case *BuddyPool:
		n = p.live.count()
	default:
		panic(fmt.Sprintf("liveCount of %T", pool))
	}
	return n
}

// count returns the number of live entries in t.
func (t *handleTable[T]) count() int {
	return len(t.entries) - len(t.free)
}

// newCtx returns a fresh simulation context over h.
func newCtx(t *testing.T, h *memhier.Hierarchy) *simheap.Context {
	t.Helper()
	return simheap.NewContext(h)
}

// newFreeList returns an empty list whose searches use fit, with index
// nodes from slab (nil for a slab of its own), as a general pool's bin.
func newFreeList(ctx *simheap.Context, layer memhier.LayerID, metaAddr uint64, order ListOrder, links ListLinks, fit FitPolicy, slab *nodeSlab) *FreeList {
	l := new(FreeList)
	l.init(ctx, layer, metaAddr, order, links, fit, slab)
	return l
}
