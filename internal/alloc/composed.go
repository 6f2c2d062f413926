package alloc

import (
	"errors"
	"fmt"

	"dmexplore/internal/mutant"
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
	// SizeOf returns the requested size of the live allocation p, and
	// whether p is one.
	SizeOf(p Ptr) (int64, bool)
	// LiveBlocks returns the number of live allocations.
	LiveBlocks() int
	// RequestedLive returns the requested bytes of the live allocations.
	RequestedLive() int64
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
	name    string // empty for a Config's allocator with no Label: Name derives it
	cfg     Config // the configuration Build made it from, if any
	ctx     *simheap.Context
	fixed   []*FixedPool
	general FallbackPool

	stats Stats // all but RequestedLive, which the pools keep
}

// errNoFallback rejects a composed allocator without a general pool.
var errNoFallback = errors.New("alloc: composed allocator needs a general pool")

// NewComposed assembles an allocator from already-constructed pools.
// general may not be nil: every configuration needs a fallback pool.
func NewComposed(name string, ctx *simheap.Context, fixed []*FixedPool, general FallbackPool) (*Composed, error) {
	if general == nil {
		return nil, errNoFallback
	}
	return &Composed{
		name:    name,
		ctx:     ctx,
		fixed:   fixed,
		general: general,
	}, nil
}

// Name implements Allocator: the name NewComposed was given, or the
// Label of the configuration Build made c from, or else that
// configuration's ID.
func (c *Composed) Name() string {
	if c.name == "" {
		return c.cfg.ID()
	}
	return c.name
}

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
			return c.commit(ptr, i, allocated), nil
		}
		// Dedicated pool exhausted: fall back to the general pool.
		break
	}
	ptr, allocated, err := c.general.Malloc(size)
	if err != nil {
		c.stats.Failures++
		return Ptr{}, err
	}
	return c.commit(ptr, len(c.fixed), allocated), nil
}

// commit counts the allocation ptr of pool i (len(fixed) for the general
// pool) and returns it marked with the pool.
func (c *Composed) commit(ptr Ptr, i int, allocated int64) Ptr {
	c.stats.Mallocs++
	c.stats.LiveBlocks++
	c.stats.AllocatedLive += allocated
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
	var (
		released int64
		err      error
	)
	if i < len(c.fixed) {
		released, err = c.fixed[i].Free(inner)
	} else {
		released, err = c.general.Free(inner)
	}
	if err != nil {
		return err
	}
	c.ctx.Compute(uint64(len(c.fixed) + 1)) // address-range dispatch
	c.stats.Frees++
	c.stats.LiveBlocks--
	c.stats.AllocatedLive -= released
	return nil
}

// Where implements Allocator.
func (c *Composed) Where(p Ptr) (Ptr, bool) {
	_, ok := c.SizeOf(p)
	return p, ok
}

// SizeOf implements Allocator.
func (c *Composed) SizeOf(p Ptr) (int64, bool) {
	i, inner, ok := c.route(p)
	switch {
	case !ok:
		return 0, false
	case i < len(c.fixed):
		return c.fixed[i].SizeOf(inner)
	default:
		return c.general.SizeOf(inner)
	}
}

// Stats implements Allocator.
func (c *Composed) Stats() Stats {
	st := c.stats
	for _, fp := range c.fixed {
		st.RequestedLive += fp.RequestedLive()
	}
	st.RequestedLive += c.general.RequestedLive()
	return st
}

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
