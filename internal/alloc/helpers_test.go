package alloc

import (
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// owns reports whether pool treats ptr as one of its live allocations.
func owns(pool interface{ SizeOf(Ptr) (int64, bool) }, ptr Ptr) bool {
	_, ok := pool.SizeOf(ptr)
	return ok
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
