package alloc

import (
	"fmt"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// FixedPoolParams configures a dedicated pool serving one block size.
// Dedicated pools are the paper's central customization: the dominant
// allocation sizes of an application (74-byte control blocks, 1500-byte
// frames in the Easyport study) get headerless O(1) pools, optionally
// placed on the scratchpad layer.
type FixedPoolParams struct {
	Layer     memhier.LayerID
	SlotBytes int64 // payload capacity of each slot (word multiple after rounding)

	// MatchLo..MatchHi is the inclusive request-size range routed to this
	// pool by the composed allocator. Requests above SlotBytes are never
	// routed here regardless of the range.
	MatchLo, MatchHi int64

	Order  ListOrder
	Links  ListLinks
	Growth GrowthMode

	ChunkSlots int   // slots added per arena extension
	MaxBytes   int64 // cap on total arena bytes; 0 = unlimited

	// Reclaim releases a whole chunk back to its layer when every slot in
	// it is free again — trading extra free-path work (unlinking the
	// chunk's slots from the free list) for footprint after bursts.
	Reclaim bool
}

// Validate reports configuration errors.
func (p FixedPoolParams) Validate() error {
	if p.SlotBytes <= 0 {
		return fmt.Errorf("alloc: fixed pool slot size %d", p.SlotBytes)
	}
	if p.MatchLo <= 0 || p.MatchHi < p.MatchLo {
		return fmt.Errorf("alloc: fixed pool match range [%d,%d]", p.MatchLo, p.MatchHi)
	}
	if p.MatchHi > p.SlotBytes {
		return fmt.Errorf("alloc: fixed pool match range [%d,%d] exceeds slot size %d",
			p.MatchLo, p.MatchHi, p.SlotBytes)
	}
	if !p.Order.Valid() || !p.Links.Valid() || !p.Growth.Valid() {
		return fmt.Errorf("alloc: fixed pool has an invalid policy value")
	}
	if p.ChunkSlots <= 0 {
		return fmt.Errorf("alloc: fixed pool chunk slots %d", p.ChunkSlots)
	}
	if p.MaxBytes < 0 {
		return fmt.Errorf("alloc: negative fixed pool cap")
	}
	return nil
}

// fixedArena is one slot chunk with its occupancy bookkeeping.
type fixedArena struct {
	region    *simheap.Region
	base, end uint64 // the region's address range
	live      int    // slots currently allocated
	slots     int    // slots carved so far

	// pages holds the Block of every carved slot, slotPageLen to a page,
	// so a slot's Block is found from its offset in the arena and stays
	// put (free lists link Blocks by pointer) as the arena is carved.
	pages []*slotPage
}

// slotPageLen is the number of slot Blocks per page.
const slotPageLen = 32

type slotPage [slotPageLen]Block

// FixedPool is a headerless pool of equal-size slots: allocation pops the
// free list or bumps a frontier pointer; free pushes. Both are O(1) —
// the cheapest allocator the framework can assemble.
type FixedPool struct {
	params    FixedPoolParams
	slotBytes int64 // word-aligned slot size
	ctx       *simheap.Context

	meta *simheap.Region
	list *FreeList

	arenas     []*fixedArena // in ascending address order
	arenaBytes int64
	bump       uint64 // next unused slot address in the newest arena
	bumpEnd    uint64 // end of the newest arena
	nextSlots  int

	live      int    // live slots
	requested int64  // requested bytes of the live slots
	tags      tagger // stamps each allocated slot's Ptr
	reclaims  int    // chunks returned to the layer
}

// fixedMetaWords: free-list words plus the bump frontier pointer.
const fixedMetaWords = MetaWords + 1

// NewFixedPool reserves the pool's metadata and returns the pool. No slot
// memory is reserved until the first allocation.
func NewFixedPool(ctx *simheap.Context, params FixedPoolParams) (*FixedPool, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	meta, err := ctx.Reserve(params.Layer, fixedMetaWords*simheap.WordSize)
	if err != nil {
		return nil, fmt.Errorf("alloc: reserving fixed pool metadata: %w", err)
	}
	p := &FixedPool{
		params:    params,
		slotBytes: align(params.SlotBytes, simheap.WordSize),
		ctx:       ctx,
		meta:      meta,
		nextSlots: params.ChunkSlots,
	}
	p.list = NewFreeList(ctx, params.Layer, meta.Base(), params.Order, params.Links)
	return p, nil
}

// Layer returns the hierarchy layer the pool's slots live in.
func (p *FixedPool) Layer() memhier.LayerID { return p.params.Layer }

// SlotBytes returns the word-aligned slot capacity.
func (p *FixedPool) SlotBytes() int64 { return p.slotBytes }

// Matches reports whether a request of the given size is routed here.
func (p *FixedPool) Matches(size int64) bool {
	return size >= p.params.MatchLo && size <= p.params.MatchHi
}

// bumpAddr is the metadata address of the frontier pointer.
func (p *FixedPool) bumpAddr() uint64 {
	return p.meta.Base() + MetaWords*simheap.WordSize
}

// arenaOf locates the arena containing addr by binary search over the
// address-ordered arenas, or returns nil.
func (p *FixedPool) arenaOf(addr uint64) *fixedArena {
	lo, hi := 0, len(p.arenas)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.arenas[m].end <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(p.arenas) && p.arenas[lo].base <= addr {
		return p.arenas[lo]
	}
	return nil
}

// slot returns the Block of carved slot i of arena a.
func (a *fixedArena) slot(i int) *Block {
	return &a.pages[i/slotPageLen][i%slotPageLen]
}

// slotOf returns the arena and Block of the carved slot starting at
// addr, or nils when addr is not a slot start.
func (p *FixedPool) slotOf(addr uint64) (*fixedArena, *Block) {
	a := p.arenaOf(addr)
	if a == nil {
		return nil, nil
	}
	off := addr - a.base
	i := off / uint64(p.slotBytes)
	if off%uint64(p.slotBytes) != 0 || i >= uint64(a.slots) {
		return nil, nil
	}
	return a, a.slot(int(i))
}

// issue marks slot b allocated for a request of size bytes and returns
// its Ptr.
func (p *FixedPool) issue(a *fixedArena, b *Block, size int64) (Ptr, int64, error) {
	b.free = false
	b.tag = p.tags.next()
	b.setRequested(size)
	a.live++
	p.live++
	p.requested += size
	return Ptr{Layer: p.params.Layer, Addr: b.addr, h: handle{tag: b.tag}}, p.slotBytes, nil
}

// Malloc allocates one slot. The returned int64 is the slot capacity
// actually consumed (always SlotBytes).
func (p *FixedPool) Malloc(size int64) (Ptr, int64, error) {
	if err := checkSize(size); err != nil {
		return Ptr{}, 0, err
	}
	if size > p.slotBytes {
		return Ptr{}, 0, fmt.Errorf("%w: request %d exceeds slot size %d",
			ErrBadSize, size, p.slotBytes)
	}
	// Recycled slot first.
	if b := p.list.PopHead(); b != nil {
		return p.issue(p.arenaOf(b.addr), b, size)
	}
	// Bump-carve from the newest arena.
	p.ctx.Read(p.params.Layer, p.bumpAddr(), 1)
	if p.bump >= p.bumpEnd {
		if err := p.grow(); err != nil {
			return Ptr{}, 0, err
		}
	}
	addr := p.bump
	p.bump += uint64(p.slotBytes)
	p.ctx.Write(p.params.Layer, p.bumpAddr(), 1)
	a := p.arenas[len(p.arenas)-1]
	i := a.slots
	if i/slotPageLen == len(a.pages) {
		a.pages = append(a.pages, new(slotPage))
	}
	a.slots++
	b := a.slot(i)
	*b = Block{addr: addr, size: p.slotBytes}
	return p.issue(a, b, size)
}

// grow reserves a new arena of ChunkSlots (doubling under GrowDouble).
func (p *FixedPool) grow() error {
	size := int64(p.nextSlots) * p.slotBytes
	if p.params.MaxBytes > 0 && p.arenaBytes+size > p.params.MaxBytes {
		size = p.params.MaxBytes - p.arenaBytes
		size -= size % p.slotBytes
		if size < p.slotBytes {
			return errFixedBudget
		}
	}
	region, err := reserve(p.ctx, p.params.Layer, size)
	if err != nil {
		return err
	}
	p.arenas = append(p.arenas, &fixedArena{region: region, base: region.Base(), end: region.End()})
	p.arenaBytes += size
	p.bump = region.Base()
	p.bumpEnd = region.End()
	if p.params.Growth == GrowDouble {
		p.nextSlots *= 2
	}
	return nil
}

// lookup returns the arena and Block of the live slot ptr names, or nils.
func (p *FixedPool) lookup(ptr Ptr) (*fixedArena, *Block) {
	if ptr.Layer != p.params.Layer || ptr.h.tag == 0 {
		return nil, nil
	}
	a, b := p.slotOf(ptr.Addr)
	if b == nil || b.tag != ptr.h.tag {
		return nil, nil
	}
	return a, b
}

// Free releases the slot ptr names. Under Reclaim, a chunk whose last
// live slot just died is unlinked slot-by-slot from the free list and its
// memory returned to the layer.
func (p *FixedPool) Free(ptr Ptr) (int64, error) {
	a, b := p.lookup(ptr)
	if b == nil {
		return 0, badFree(ptr)
	}
	a.live--
	p.live--
	p.requested -= b.requested()
	b.tag = 0
	b.free = true
	p.list.Push(b)

	if p.params.Reclaim && a.live == 0 && !p.isBumpArena(a) {
		p.reclaim(a)
	}
	return p.slotBytes, nil
}

// isBumpArena reports whether a is the arena the frontier carves from.
func (p *FixedPool) isBumpArena(a *fixedArena) bool {
	return len(p.arenas) > 0 && p.arenas[len(p.arenas)-1] == a
}

// reclaim unlinks every slot of a fully-free arena and releases it.
func (p *FixedPool) reclaim(a *fixedArena) {
	for i := 0; i < a.slots; i++ {
		if b := a.slot(i); b.list != nil {
			p.list.Remove(b)
		}
	}
	for i, other := range p.arenas {
		if other == a {
			p.arenas = append(p.arenas[:i], p.arenas[i+1:]...)
			break
		}
	}
	p.arenaBytes -= a.region.Size()
	a.region.Release()
	p.reclaims++
}

// SizeOf returns the requested size of the live slot ptr names, and
// whether it names one.
func (p *FixedPool) SizeOf(ptr Ptr) (int64, bool) {
	if _, b := p.lookup(ptr); b != nil {
		return b.requested(), true
	}
	return 0, false
}

// LiveBlocks returns the number of live slots.
func (p *FixedPool) LiveBlocks() int { return p.live }

// RequestedLive returns the requested bytes of the live slots.
func (p *FixedPool) RequestedLive() int64 { return p.requested }

// ArenaBytes returns the total bytes reserved for slot arenas.
func (p *FixedPool) ArenaBytes() int64 { return p.arenaBytes }

// FreeSlots returns the length of the recycle list.
func (p *FixedPool) FreeSlots() int { return p.list.Len() }

// Reclaims returns the number of chunks returned to the layer.
func (p *FixedPool) Reclaims() int { return p.reclaims }
