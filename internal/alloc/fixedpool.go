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
	region simheap.Region
	live   int // slots currently allocated
	slots  int // slots carved so far

	// pages holds the Block of every carved slot, slotPageLen to a page,
	// so a slot's Block stays put (free lists link Blocks by pointer) as
	// the arena is carved.
	pages []*slotPage
}

// slotPageLen is the number of slot Blocks per page.
const slotPageLen = 32

// slotPage holds slotPageLen slot Blocks of one arena. Its ordinal in
// the pool's page table names it in the Ptrs of its slots.
type slotPage struct {
	slots [slotPageLen]Block
	arena *fixedArena
	ord   uint32
}

// FixedPool is a headerless pool of equal-size slots: allocation pops the
// free list or bumps a frontier pointer; free pushes. Both are O(1) —
// the cheapest allocator the framework can assemble.
type FixedPool struct {
	params    FixedPoolParams
	slotBytes int64 // word-aligned slot size
	ctx       *simheap.Context

	meta  simheap.Region
	list  FreeList
	nodes nodeSlab // the list's index nodes, if it keeps an index

	arenas     []*fixedArena
	arenaBytes int64
	bump       uint64 // next unused slot address in the newest arena
	bumpEnd    uint64 // end of the newest arena
	nextSlots  int

	// pages is the page table: every carved slot page by ordinal, nil
	// where a reclaimed arena's page was. A slot's ordinal (its page's
	// ordinal times slotPageLen, plus its place in the page) is the slot
	// of its Ptrs' handles, so Free finds the slot without a search.
	// freeOrds are the ordinals of reclaimed pages, for the next arena's
	// pages.
	pages    []*slotPage
	freeOrds []uint32
	stash    *BlockStash // supplies the arenas and slot pages

	tags     tagger // stamps each allocated slot's Ptr
	reclaims int    // chunks returned to the layer
}

// fixedMetaWords: free-list words plus the bump frontier pointer.
const fixedMetaWords = MetaWords + 1

// NewFixedPool reserves the pool's metadata and returns the pool. No slot
// memory is reserved until the first allocation.
func NewFixedPool(ctx *simheap.Context, params FixedPoolParams) (*FixedPool, error) {
	return newFixedPool(ctx, params, new(BlockStash))
}

// newFixedPool is NewFixedPool built on stash: the pool struct, its
// arena list, page table and index-node slab are the stash's, kept from
// a pool it retired, and its arenas and slot pages come from the stash
// too.
func newFixedPool(ctx *simheap.Context, params FixedPoolParams, stash *BlockStash) (*FixedPool, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	meta, err := ctx.Reserve(params.Layer, fixedMetaWords*simheap.WordSize)
	if err != nil {
		return nil, fmt.Errorf("alloc: reserving fixed pool metadata: %w", err)
	}
	p := reuse(&stash.fixed, &stash.nFixed)
	*p = FixedPool{
		params:    params,
		slotBytes: align(params.SlotBytes, simheap.WordSize),
		ctx:       ctx,
		meta:      meta,
		nodes:     nodeSlab{pages: p.nodes.pages, path: p.nodes.path[:0]},
		arenas:    p.arenas[:0],
		nextSlots: params.ChunkSlots,
		pages:     p.pages[:0],
		freeOrds:  p.freeOrds[:0],
		stash:     stash,
	}
	p.list.init(ctx, params.Layer, meta.Base(), params.Order, params.Links, ExactFit, &p.nodes)
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

// slot returns the Block of carved slot i of arena a.
func (a *fixedArena) slot(i int) *Block {
	return &a.pages[i/slotPageLen].slots[i%slotPageLen]
}

// slotAt returns the page and Block of the slot with the given ordinal,
// or nils when no carved page has it.
func (p *FixedPool) slotAt(ord uint32) (*slotPage, *Block) {
	if i := ord / slotPageLen; i < uint32(len(p.pages)) {
		if pg := p.pages[i]; pg != nil {
			return pg, &pg.slots[ord%slotPageLen]
		}
	}
	return nil, nil
}

// newPage adds a slot page to arena a under a free ordinal.
func (p *FixedPool) newPage(a *fixedArena) {
	pg := p.stash.slotPage()
	pg.arena = a
	if n := len(p.freeOrds); n > 0 {
		pg.ord = p.freeOrds[n-1]
		p.freeOrds = p.freeOrds[:n-1]
		p.pages[pg.ord] = pg
	} else {
		pg.ord = uint32(len(p.pages))
		p.pages = append(p.pages, pg)
	}
	a.pages = append(a.pages, pg)
}

// issue marks slot b, number ord, allocated and returns its Ptr. A free
// slot keeps its ordinal where a live one keeps its Ptr's tag: ordinals
// fit in 32 bits and every tag is larger (tagger), so no Ptr names a
// free slot.
func (p *FixedPool) issue(a *fixedArena, b *Block, ord uint32) Ptr {
	b.free = false
	b.tag = p.tags.next()
	a.live++
	return Ptr{Layer: p.params.Layer, Addr: b.addr, h: handle{slot: ord, tag: b.tag}}
}

// Malloc allocates one slot.
func (p *FixedPool) Malloc(size int64) (Ptr, error) {
	if err := checkSize(size); err != nil {
		return Ptr{}, err
	}
	if size > p.slotBytes {
		return Ptr{}, fmt.Errorf("%w: request %d exceeds slot size %d",
			ErrBadSize, size, p.slotBytes)
	}
	// Recycled slot first.
	if b := p.list.PopHead(); b != nil {
		ord := uint32(b.tag)
		pg, _ := p.slotAt(ord)
		return p.issue(pg.arena, b, ord), nil
	}
	// Bump-carve from the newest arena.
	p.ctx.Read(p.params.Layer, p.bumpAddr(), 1)
	if p.bump >= p.bumpEnd {
		if err := p.grow(); err != nil {
			return Ptr{}, err
		}
	}
	addr := p.bump
	p.bump += uint64(p.slotBytes)
	p.ctx.Write(p.params.Layer, p.bumpAddr(), 1)
	a := p.arenas[len(p.arenas)-1]
	i := a.slots
	if i/slotPageLen == len(a.pages) {
		p.newPage(a)
	}
	a.slots++
	b := a.slot(i)
	*b = Block{addr: addr, size: p.slotBytes}
	return p.issue(a, b, a.pages[i/slotPageLen].ord*slotPageLen+uint32(i%slotPageLen)), nil
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
	p.arenas = append(p.arenas, p.stash.fixedArena(region))
	p.arenaBytes += size
	p.bump = region.Base()
	p.bumpEnd = region.End()
	if p.params.Growth == GrowDouble {
		p.nextSlots *= 2
	}
	return nil
}

// lookup returns the arena and Block of the live slot ptr names, or
// nils: the handle's slot ordinal picks the Block, which must hold the
// handle's tag (a free slot holds its ordinal, below every tag) and
// start at the Ptr's address.
func (p *FixedPool) lookup(ptr Ptr) (*fixedArena, *Block) {
	if ptr.Layer != p.params.Layer || ptr.h.tag < firstTag {
		return nil, nil
	}
	pg, b := p.slotAt(ptr.h.slot)
	if b == nil || b.tag != ptr.h.tag || b.addr != ptr.Addr {
		return nil, nil
	}
	return pg.arena, b
}

// Free releases the slot ptr names. Under Reclaim, a chunk whose last
// live slot just died is unlinked slot-by-slot from the free list and its
// memory returned to the layer.
func (p *FixedPool) Free(ptr Ptr) error {
	a, b := p.lookup(ptr)
	if b == nil {
		return badFree(ptr)
	}
	a.live--
	b.tag = uint64(ptr.h.slot)
	b.free = true
	p.list.Push(b)

	if p.params.Reclaim && a.live == 0 && !p.isBumpArena(a) {
		p.reclaim(a)
	}
	return nil
}

// isBumpArena reports whether a is the arena the frontier carves from.
func (p *FixedPool) isBumpArena(a *fixedArena) bool {
	return len(p.arenas) > 0 && p.arenas[len(p.arenas)-1] == a
}

// reclaim unlinks every slot of a fully-free arena and releases it,
// and its page ordinals with it.
func (p *FixedPool) reclaim(a *fixedArena) {
	for i := 0; i < a.slots; i++ {
		if b := a.slot(i); b.list != nil {
			p.list.Remove(b)
		}
	}
	for _, pg := range a.pages {
		p.pages[pg.ord] = nil
		p.freeOrds = append(p.freeOrds, pg.ord)
	}
	for i, other := range p.arenas {
		if other == a {
			p.arenas = append(p.arenas[:i], p.arenas[i+1:]...)
			break
		}
	}
	p.arenaBytes -= a.region.Size()
	a.region.Release()
	p.stash.retireFixedArena(a)
	p.reclaims++
}

// ArenaBytes returns the total bytes reserved for slot arenas.
func (p *FixedPool) ArenaBytes() int64 { return p.arenaBytes }

// FreeSlots returns the length of the recycle list.
func (p *FixedPool) FreeSlots() int { return p.list.Len() }

// Reclaims returns the number of chunks returned to the layer.
func (p *FixedPool) Reclaims() int { return p.reclaims }
