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
