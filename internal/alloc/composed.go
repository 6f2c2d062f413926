package alloc

import (
	"errors"

	"dmexplore/internal/mutant"
	"dmexplore/internal/simheap"
)

// FallbackPool is the contract a pool must satisfy to serve as the
// composed allocator's general fallback. Both GeneralPool (segregated
// fit/storage) and BuddyPool implement it.
type FallbackPool interface {
	// Malloc allocates size payload bytes and returns the payload
	// pointer.
	Malloc(size int64) (Ptr, error)
	// Free releases an allocation this pool's Malloc returned.
	Free(p Ptr) error
}

// Composed is a complete custom allocator: an ordered set of dedicated
// fixed-size pools backed by a general fallback pool. Requests are routed
// to the first matching fixed pool; when a fixed pool cannot grow (its
// layer or budget is exhausted) the request falls back to the general
// pool, which models scratchpad-overflow behaviour on the target.
//
// Composed keeps no table of its own: the Ptr it hands out is the
// serving pool's, with that pool's index in its handle, so Free
// dispatches straight to the pool, whose own handle check rejects a
// stale, forged or foreign Ptr. On the target the dispatch is an
// address-range check per pool, charged as compute cycles.
type Composed struct {
	ctx     *simheap.Context
	fixed   []*FixedPool
	general FallbackPool
}

// errNoFallback rejects a composed allocator without a general pool.
var errNoFallback = errors.New("alloc: composed allocator needs a general pool")

// NewComposed assembles an allocator from already-constructed pools.
// general may not be nil: every configuration needs a fallback pool.
func NewComposed(ctx *simheap.Context, fixed []*FixedPool, general FallbackPool) (*Composed, error) {
	if general == nil {
		return nil, errNoFallback
	}
	return &Composed{ctx: ctx, fixed: fixed, general: general}, nil
}

// Fallback returns the general fallback pool.
func (c *Composed) Fallback() FallbackPool { return c.general }

// Malloc implements Allocator.
func (c *Composed) Malloc(size int64) (Ptr, error) {
	if err := checkSize(size); err != nil {
		return Ptr{}, err
	}
	for i, fp := range c.fixed {
		c.ctx.Compute(1) // routing check: size range compare
		if !fp.Matches(size) {
			continue
		}
		ptr, err := fp.Malloc(size)
		if err == nil {
			return mark(ptr, i), nil
		}
		// Dedicated pool exhausted: fall back to the general pool.
		break
	}
	ptr, err := c.general.Malloc(size)
	if err != nil {
		return Ptr{}, err
	}
	return mark(ptr, len(c.fixed)), nil
}

// mark returns ptr, issued by pool i (len(fixed) for the general pool),
// marked with the pool.
func mark(ptr Ptr, i int) Ptr {
	ptr.h.pool = uint32(i) + 1
	return ptr
}

// route returns the index of the pool p names (len(fixed) for the
// general pool) and p as that pool issued it. ok is false when p names
// no pool of c: it was not issued through a Composed, or its index is
// out of range.
func (c *Composed) route(p Ptr) (i int, inner Ptr, ok bool) {
	i = int(p.h.pool) - 1
	if mutant.Name == "pool-zero-general" && i < 0 {
		i = len(c.fixed)
	}
	p.h.pool = 0
	return i, p, i >= 0 && i <= len(c.fixed)
}

// Free implements Allocator.
func (c *Composed) Free(p Ptr) error {
	i, inner, ok := c.route(p)
	if !ok {
		return badFree(p)
	}
	var err error
	if i < len(c.fixed) {
		err = c.fixed[i].Free(inner)
	} else {
		err = c.general.Free(inner)
	}
	if err != nil {
		return err
	}
	c.ctx.Compute(uint64(len(c.fixed) + 1)) // address-range dispatch
	return nil
}

// CheckInvariants verifies the allocator's simulator-side consistency.
func (c *Composed) CheckInvariants() error {
	switch g := c.general.(type) {
	case *GeneralPool:
		return g.checkInvariants()
	case *BuddyPool:
		return g.checkInvariants()
	default:
		return nil
	}
}
