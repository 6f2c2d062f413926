package alloc

import (
	"fmt"

	"dmexplore/internal/simheap"
)

// FallbackPool is the contract a pool must satisfy to serve as the
// composed allocator's general fallback. Both GeneralPool (segregated
// fit/storage) and BuddyPool implement it.
type FallbackPool interface {
	// Malloc allocates size payload bytes, returning the payload pointer
	// and the block bytes actually consumed.
	Malloc(size int64) (Ptr, int64, error)
	// Free releases an allocation this pool's Malloc returned, returning
	// the block bytes released.
	Free(p Ptr) (int64, error)
	// LiveBlocks returns the number of live allocations.
	LiveBlocks() int
}

// Composed is a complete custom allocator: an ordered set of dedicated
// fixed-size pools backed by a general fallback pool. Requests are routed
// to the first matching fixed pool; when a fixed pool cannot grow (its
// layer or budget is exhausted) the request falls back to the general
// pool, which models scratchpad-overflow behaviour on the target.
type Composed struct {
	name    string
	ctx     *simheap.Context
	fixed   []*FixedPool
	general FallbackPool

	// live holds, per live allocation, the owning pool (so Free can
	// dispatch), the pool's own handle and the requested size. On the
	// target the dispatch is an address-range check per pool, charged as
	// compute cycles.
	live handleTable[liveAlloc]

	stats Stats
}

// liveAlloc is the per-allocation bookkeeping entry.
type liveAlloc struct {
	addr      uint64
	requested int64
	inner     handle // the serving pool's handle
	pool      int32  // index into fixed; generalPool for the fallback
}

// generalPool marks an allocation served by the general fallback pool.
const generalPool int32 = -1

// NewComposed assembles an allocator from already-constructed pools.
// general may not be nil: every configuration needs a fallback pool.
func NewComposed(name string, ctx *simheap.Context, fixed []*FixedPool, general FallbackPool) (*Composed, error) {
	if general == nil {
		return nil, fmt.Errorf("alloc: composed allocator needs a general pool")
	}
	return &Composed{
		name:    name,
		ctx:     ctx,
		fixed:   fixed,
		general: general,
	}, nil
}

// Name implements Allocator.
func (c *Composed) Name() string { return c.name }

// FixedPools returns the dedicated pools in routing order.
func (c *Composed) FixedPools() []*FixedPool { return c.fixed }

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
		ptr, allocated, err := fp.Malloc(size)
		if err == nil {
			return c.commit(ptr, int32(i), size, allocated), nil
		}
		// Dedicated pool exhausted: fall back to the general pool.
		break
	}
	ptr, allocated, err := c.general.Malloc(size)
	if err != nil {
		c.stats.Failures++
		return Ptr{}, err
	}
	return c.commit(ptr, generalPool, size, allocated), nil
}

// commit records the pool's allocation ptr and returns the Ptr handed to
// the caller: the same layer and address under this allocator's handle.
func (c *Composed) commit(ptr Ptr, pool int32, requested, allocated int64) Ptr {
	h := c.live.put(liveAlloc{addr: ptr.Addr, requested: requested, inner: ptr.h, pool: pool})
	c.stats.Mallocs++
	c.stats.LiveBlocks++
	c.stats.RequestedLive += requested
	c.stats.AllocatedLive += allocated
	return Ptr{Layer: ptr.Layer, Addr: ptr.Addr, h: h}
}

// lookup returns the live entry p names, or nil.
func (c *Composed) lookup(p Ptr) *liveAlloc {
	la := c.live.get(p.h)
	if la == nil || la.addr != p.Addr {
		return nil
	}
	return la
}

// Free implements Allocator.
func (c *Composed) Free(p Ptr) error {
	la := c.lookup(p)
	if la == nil {
		return badFree(p)
	}
	c.ctx.Compute(uint64(len(c.fixed) + 1)) // address-range dispatch
	inner := Ptr{Layer: p.Layer, Addr: p.Addr, h: la.inner}
	var (
		released int64
		err      error
	)
	if la.pool >= 0 {
		released, err = c.fixed[la.pool].Free(inner)
	} else {
		released, err = c.general.Free(inner)
	}
	if err != nil {
		return err
	}
	c.stats.Frees++
	c.stats.LiveBlocks--
	c.stats.RequestedLive -= la.requested
	c.stats.AllocatedLive -= released
	c.live.drop(p.h)
	return nil
}

// Where implements Allocator.
func (c *Composed) Where(p Ptr) (Ptr, bool) {
	return p, c.lookup(p) != nil
}

// SizeOf implements Allocator.
func (c *Composed) SizeOf(p Ptr) (int64, bool) {
	if la := c.lookup(p); la != nil {
		return la.requested, true
	}
	return 0, false
}

// Stats implements Allocator.
func (c *Composed) Stats() Stats { return c.stats }

// CheckInvariants verifies the allocator's simulator-side consistency.
func (c *Composed) CheckInvariants() error {
	live := 0
	for _, fp := range c.fixed {
		live += fp.LiveBlocks()
	}
	live += c.general.LiveBlocks()
	if int64(live) != c.stats.LiveBlocks {
		return fmt.Errorf("alloc: %d live in pools, %d in stats", live, c.stats.LiveBlocks)
	}
	switch g := c.general.(type) {
	case *GeneralPool:
		return g.checkInvariants()
	case *BuddyPool:
		return g.checkInvariants()
	default:
		return nil
	}
}
