package alloc

import (
	"fmt"
	"math/bits"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// BuddyPoolParams configures a binary-buddy pool — the classic
// power-of-two splitting allocator (Knowlton 1965; surveyed in Wilson et
// al. 1995, the paper's reference [2]). Requests round up to the next
// power of two; blocks split recursively in halves and merge with their
// buddy on free. O(log n) worst case with very cheap buddy location
// (address arithmetic), at the price of power-of-two internal
// fragmentation.
type BuddyPoolParams struct {
	Layer memhier.LayerID

	MinBlock int64 // smallest block size (power of two, >= one word + header)
	MaxBlock int64 // largest block size == arena size per growth (power of two)

	MaxBytes int64 // cap on total arena bytes; 0 = unlimited
}

// Validate reports configuration errors.
func (p BuddyPoolParams) Validate() error {
	if p.MinBlock <= 0 || p.MinBlock&(p.MinBlock-1) != 0 {
		return fmt.Errorf("alloc: buddy min block %d not a positive power of two", p.MinBlock)
	}
	if p.MaxBlock < p.MinBlock || p.MaxBlock&(p.MaxBlock-1) != 0 {
		return fmt.Errorf("alloc: buddy max block %d invalid", p.MaxBlock)
	}
	if p.MinBlock < 2*simheap.WordSize {
		return fmt.Errorf("alloc: buddy min block %d below header+payload minimum", p.MinBlock)
	}
	if p.MaxBytes < 0 {
		return fmt.Errorf("alloc: negative buddy cap")
	}
	return nil
}

// buddyBlock is one block in the buddy system.
type buddyBlock struct {
	addr  uint64
	order int // size = MinBlock << order
	free  bool

	flNext, flPrev *buddyBlock // free-list links within its order
}

// BuddyPool implements the binary-buddy system on the simulated heap.
// Free lists are one LIFO per order; the per-block header word stores
// order and status (read/written like any other block header).
type BuddyPool struct {
	params BuddyPoolParams
	ctx    *simheap.Context

	meta   simheap.Region
	orders int

	heads  []*buddyBlock          // free list head per order (Go side)
	blocks map[uint64]*buddyBlock // all blocks by address

	arenas     []simheap.Region
	arenaBytes int64

	live handleTable[*buddyBlock] // live allocations by handle
}

// NewBuddyPool reserves the order-vector metadata and returns the pool.
func NewBuddyPool(ctx *simheap.Context, params BuddyPoolParams) (*BuddyPool, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	orders := bits.TrailingZeros64(uint64(params.MaxBlock)) -
		bits.TrailingZeros64(uint64(params.MinBlock)) + 1
	meta, err := ctx.Reserve(params.Layer, int64(orders)*simheap.WordSize)
	if err != nil {
		return nil, fmt.Errorf("alloc: reserving buddy metadata: %w", err)
	}
	return &BuddyPool{
		params: params,
		ctx:    ctx,
		meta:   meta,
		orders: orders,
		heads:  make([]*buddyBlock, orders),
		blocks: make(map[uint64]*buddyBlock),
	}, nil
}

// Layer returns the pool's hierarchy layer.
func (p *BuddyPool) Layer() memhier.LayerID { return p.params.Layer }

func (p *BuddyPool) blockSize(order int) int64 { return p.params.MinBlock << uint(order) }

// orderFor returns the smallest order whose block holds payload+header,
// or -1 when the request exceeds MaxBlock.
func (p *BuddyPool) orderFor(payload int64) int {
	need := payload + simheap.WordSize // header word
	for o := 0; o < p.orders; o++ {
		if p.blockSize(o) >= need {
			return o
		}
	}
	return -1
}

func (p *BuddyPool) headAddr(order int) uint64 {
	return p.meta.Base() + uint64(order)*simheap.WordSize
}

// push/pop maintain the per-order LIFO lists with charging.
func (p *BuddyPool) push(b *buddyBlock) {
	p.ctx.Read(p.params.Layer, p.headAddr(b.order), 1)
	p.ctx.Write(p.params.Layer, b.addr, 1) // link word in block
	p.ctx.Write(p.params.Layer, p.headAddr(b.order), 1)
	b.flNext = p.heads[b.order]
	b.flPrev = nil
	if b.flNext != nil {
		b.flNext.flPrev = b
	}
	p.heads[b.order] = b
	b.free = true
}

func (p *BuddyPool) pop(order int) *buddyBlock {
	p.ctx.Read(p.params.Layer, p.headAddr(order), 1)
	b := p.heads[order]
	if b == nil {
		return nil
	}
	p.ctx.Read(p.params.Layer, b.addr, 1)             // next link
	p.ctx.Write(p.params.Layer, p.headAddr(order), 1) // new head
	p.unlink(b)
	return b
}

// unlinkCharged removes a specific block (buddy removal is O(1): the
// buddy's links are read and its neighbours rewritten).
func (p *BuddyPool) unlinkCharged(b *buddyBlock) {
	p.ctx.Read(p.params.Layer, b.addr, 2)
	if b.flPrev == nil {
		p.ctx.Write(p.params.Layer, p.headAddr(b.order), 1)
	} else {
		p.ctx.Write(p.params.Layer, b.flPrev.addr, 1)
	}
	if b.flNext != nil {
		p.ctx.Write(p.params.Layer, b.flNext.addr, 1)
	}
	p.unlink(b)
}

func (p *BuddyPool) unlink(b *buddyBlock) {
	if b.flPrev == nil {
		p.heads[b.order] = b.flNext
	} else {
		b.flPrev.flNext = b.flNext
	}
	if b.flNext != nil {
		b.flNext.flPrev = b.flPrev
	}
	b.flNext, b.flPrev = nil, nil
	b.free = false
}

// Malloc allocates payload bytes and returns the payload pointer.
func (p *BuddyPool) Malloc(size int64) (Ptr, error) {
	if err := checkSize(size); err != nil {
		return Ptr{}, err
	}
	order := p.orderFor(size)
	if order < 0 {
		return Ptr{}, fmt.Errorf("%w: %d exceeds buddy max block", ErrBadSize, size)
	}
	p.ctx.Compute(2) // order computation (clz)

	// Find the smallest non-empty order >= requested.
	from := -1
	for o := order; o < p.orders; o++ {
		p.ctx.Read(p.params.Layer, p.headAddr(o), 1)
		if p.heads[o] != nil {
			from = o
			break
		}
	}
	var b *buddyBlock
	if from < 0 {
		var err error
		b, err = p.grow()
		if err != nil {
			return Ptr{}, err
		}
	} else {
		b = p.pop(from)
	}

	// Split down to the requested order; each split writes the new
	// buddy's header and pushes it.
	for b.order > order {
		b.order--
		buddy := &buddyBlock{addr: b.addr + uint64(p.blockSize(b.order)), order: b.order}
		p.blocks[buddy.addr] = buddy
		p.ctx.Write(p.params.Layer, buddy.addr, 1) // buddy header
		p.push(buddy)
	}
	b.free = false
	p.ctx.Write(p.params.Layer, b.addr, 1) // allocated header
	h := p.live.put(b)
	return Ptr{Layer: p.params.Layer, Addr: b.addr + simheap.WordSize, h: h}, nil
}

// grow reserves one MaxBlock-sized arena and returns its spanning block.
func (p *BuddyPool) grow() (*buddyBlock, error) {
	size := p.params.MaxBlock
	if p.params.MaxBytes > 0 && p.arenaBytes+size > p.params.MaxBytes {
		return nil, errBuddyBudget
	}
	region, err := reserve(p.ctx, p.params.Layer, size)
	if err != nil {
		return nil, err
	}
	p.arenas = append(p.arenas, region)
	p.arenaBytes += size
	b := &buddyBlock{addr: region.Base(), order: p.orders - 1}
	p.blocks[b.addr] = b
	p.ctx.Write(p.params.Layer, b.addr, 1)
	return b, nil
}

// lookup returns the live block ptr names, or nil.
func (p *BuddyPool) lookup(ptr Ptr) *buddyBlock {
	bp := p.live.get(ptr.h)
	if bp == nil || ptr.Layer != p.params.Layer || (*bp).addr+simheap.WordSize != ptr.Addr {
		return nil
	}
	return *bp
}

// Free releases the allocation ptr names, merging with the buddy chain
// as far as possible.
func (p *BuddyPool) Free(ptr Ptr) error {
	b := p.lookup(ptr)
	if b == nil {
		return badFree(ptr)
	}
	p.live.drop(ptr.h)
	p.ctx.Read(p.params.Layer, b.addr, 1) // header: order/status

	// Merge upward while the buddy is free and of the same order.
	for b.order < p.orders-1 {
		buddyAddr := p.buddyAddr(b)
		buddy, ok := p.blocks[buddyAddr]
		// The buddy header read is how the target checks mergeability.
		p.ctx.Read(p.params.Layer, buddyAddr, 1)
		if !ok || !buddy.free || buddy.order != b.order {
			break
		}
		p.unlinkCharged(buddy)
		// The merged block starts at the lower of the two addresses.
		if buddy.addr < b.addr {
			delete(p.blocks, b.addr)
			b = buddy
		} else {
			delete(p.blocks, buddy.addr)
		}
		b.order++
		p.ctx.Write(p.params.Layer, b.addr, 1) // merged header
	}
	p.push(b)
	return nil
}

// buddyAddr computes the sibling address by XOR on the arena-relative
// offset — the constant-time trick that defines the buddy system.
func (p *BuddyPool) buddyAddr(b *buddyBlock) uint64 {
	base := p.arenaBase(b.addr)
	off := b.addr - base
	return base + (off ^ uint64(p.blockSize(b.order)))
}

func (p *BuddyPool) arenaBase(addr uint64) uint64 {
	for i := range p.arenas {
		if a := &p.arenas[i]; a.Contains(addr) {
			return a.Base()
		}
	}
	panic(fmt.Sprintf("alloc: address %#x outside buddy arenas", addr))
}

// ArenaBytes returns the total reserved arena bytes.
func (p *BuddyPool) ArenaBytes() int64 { return p.arenaBytes }

// FreeBlocksByOrder returns the free-list length per order (simulator
// introspection).
func (p *BuddyPool) FreeBlocksByOrder() []int {
	out := make([]int, p.orders)
	for o := 0; o < p.orders; o++ {
		for b := p.heads[o]; b != nil; b = b.flNext {
			out[o]++
		}
	}
	return out
}

// checkInvariants verifies buddy-system consistency: blocks tile each
// arena exactly, free blocks are on the list of their order, and no two
// free buddies coexist unmerged... except transiently never — after any
// Free the structure must be fully merged.
func (p *BuddyPool) checkInvariants() error {
	for i, a := range p.arenas {
		var covered int64
		addr := a.Base()
		for covered < a.Size() {
			b, ok := p.blocks[addr]
			if !ok {
				return fmt.Errorf("buddy arena %d: no block at %#x", i, addr)
			}
			size := p.blockSize(b.order)
			covered += size
			addr += uint64(size)
			if b.free {
				buddy := p.blocks[p.buddyAddr(b)]
				if buddy != nil && buddy.free && buddy.order == b.order && b.order < p.orders-1 {
					return fmt.Errorf("buddy arena %d: unmerged free buddies at %#x", i, b.addr)
				}
			}
		}
		if covered != a.Size() {
			return fmt.Errorf("buddy arena %d: blocks cover %d of %d bytes", i, covered, a.Size())
		}
	}
	return nil
}
