package alloc

import (
	"fmt"
	"slices"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// GeneralPoolParams configures a variable-size (segregated-fit) pool.
type GeneralPoolParams struct {
	Layer   memhier.LayerID
	Classes SizeClasser
	Fit     FitPolicy
	Order   ListOrder
	Links   ListLinks

	Split          SplitMode
	SplitThreshold int64 // min remainder bytes for SplitThreshold

	Coalesce      CoalesceMode
	CoalesceEvery int // sweep period in frees for CoalesceDeferred

	Headers HeaderMode
	Growth  GrowthMode

	ChunkBytes int64 // first/constant arena extension size
	MaxBytes   int64 // cap on total arena bytes; 0 = unlimited

	// RoundToClass rounds every request up to its class capacity, turning
	// the pool into segregated storage (Kingsley-style) when combined
	// with ExactFit and no split/coalesce.
	RoundToClass bool
}

// Validate reports configuration errors.
func (p GeneralPoolParams) Validate() error {
	if p.Classes == nil {
		return fmt.Errorf("alloc: general pool needs a size-class map")
	}
	if !p.Fit.Valid() || !p.Order.Valid() || !p.Links.Valid() ||
		!p.Split.Valid() || !p.Coalesce.Valid() || !p.Headers.Valid() || !p.Growth.Valid() {
		return fmt.Errorf("alloc: general pool has an invalid policy value")
	}
	if p.Split == SplitThreshold && p.SplitThreshold <= 0 {
		return fmt.Errorf("alloc: split threshold must be positive")
	}
	if p.Coalesce == CoalesceDeferred && p.CoalesceEvery <= 0 {
		return fmt.Errorf("alloc: deferred coalesce period must be positive")
	}
	if p.ChunkBytes < 256 {
		return fmt.Errorf("alloc: chunk size %d too small", p.ChunkBytes)
	}
	if p.MaxBytes < 0 {
		return fmt.Errorf("alloc: negative arena cap")
	}
	return nil
}

// GeneralPool is a variable-size pool assembled from the policy modules.
type GeneralPool struct {
	params GeneralPoolParams
	ctx    *simheap.Context

	meta       simheap.Region
	bins       []FreeList // one per size class; Blocks point into it, so it never grows
	arenas     []arena
	arenaBytes int64
	nextChunk  int64

	live  handleTable[*Block] // live allocations by handle
	frees int                 // since last deferred sweep

	// stash supplies the pool's Blocks and takes back those merges
	// absorb, so steady-state split/coalesce churn allocates nothing.
	stash *BlockStash
	nodes nodeSlab // the bins' index nodes
}

// NewGeneralPool reserves the pool's metadata area and returns the pool.
// The pool holds no arena memory until the first allocation forces growth.
func NewGeneralPool(ctx *simheap.Context, params GeneralPoolParams) (*GeneralPool, error) {
	return newGeneralPool(ctx, params, new(BlockStash))
}

// newGeneralPool is NewGeneralPool built on stash: the pool struct, its
// bins, arena list, live table and index-node slab are the stash's, kept
// from a pool it retired, and its Blocks come from the stash too.
func newGeneralPool(ctx *simheap.Context, params GeneralPoolParams, stash *BlockStash) (*GeneralPool, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := params.Classes.NumClasses()
	metaBytes := int64(n) * MetaWords * simheap.WordSize
	meta, err := ctx.Reserve(params.Layer, metaBytes)
	if err != nil {
		return nil, fmt.Errorf("alloc: reserving pool metadata: %w", err)
	}
	p := reuse(&stash.general, &stash.nGeneral)
	*p = GeneralPool{
		params:    params,
		ctx:       ctx,
		meta:      meta,
		bins:      slices.Grow(p.bins[:0], n)[:n],
		arenas:    p.arenas[:0],
		nextChunk: params.ChunkBytes,
		live:      handleTable[*Block]{entries: p.live.entries[:0], free: p.live.free[:0]},
		stash:     stash,
		nodes:     nodeSlab{pages: p.nodes.pages, path: p.nodes.path[:0]},
	}
	for c := range p.bins {
		addr := meta.Base() + uint64(c)*MetaWords*simheap.WordSize
		p.bins[c].init(ctx, params.Layer, addr, params.Order, params.Links, params.Fit, &p.nodes)
	}
	return p, nil
}

// Layer returns the hierarchy layer the pool's arenas live in.
func (p *GeneralPool) Layer() memhier.LayerID { return p.params.Layer }

// overheadBytes is the per-block metadata size under the header mode.
func (p *GeneralPool) overheadBytes() int64 {
	return p.params.Headers.Words() * simheap.WordSize
}

// classOf returns the bin for a payload size, clamping oversize requests
// into the last bin.
func (p *GeneralPool) classOf(payload int64) int {
	c := p.params.Classes.ClassOf(payload)
	if c < 0 {
		return p.params.Classes.NumClasses() - 1
	}
	return c
}

// Malloc allocates size payload bytes.
func (p *GeneralPool) Malloc(size int64) (Ptr, error) {
	if err := checkSize(size); err != nil {
		return Ptr{}, err
	}
	payload := align(size, simheap.WordSize)
	class := p.params.Classes.ClassOf(payload)
	if class < 0 {
		class = p.params.Classes.NumClasses() - 1
	} else if p.params.RoundToClass {
		if cs := p.params.Classes.ClassSize(class); cs > payload {
			payload = cs
		}
	}
	need := payload + p.overheadBytes()
	p.ctx.Compute(2) // size-class computation

	b := p.bins[class].Take(p.params.Fit, need)
	if b == nil {
		// Escalate to larger bins; any block there fits, so first-fit.
		for c := class + 1; c < len(p.bins) && b == nil; c++ {
			b = p.bins[c].Take(FirstFit, need)
		}
	}
	if b == nil {
		var err error
		if p.params.RoundToClass && p.params.Classes.ClassOf(payload) >= 0 {
			// Segregated storage: carve the new chunk into class-size
			// blocks up front (Kingsley page refill).
			b, err = p.growCarved(need)
		} else {
			b, err = p.grow(need)
		}
		if err != nil {
			return Ptr{}, err
		}
	}

	p.maybeSplit(b, need)
	b.free = false
	p.writeBlockMeta(b) // allocated header (+footer)
	h := p.live.put(b)
	return Ptr{Layer: p.params.Layer, Addr: b.addr + simheap.WordSize, h: h}, nil
}

// maybeSplit splits b down to need bytes under the split policy.
func (p *GeneralPool) maybeSplit(b *Block, need int64) {
	rem := b.size - need
	minRem := p.overheadBytes() + simheap.WordSize
	split := false
	switch p.params.Split {
	case SplitAlways:
		split = rem >= minRem
	case SplitThreshold:
		t := p.params.SplitThreshold
		if t < minRem {
			t = minRem
		}
		split = rem >= t
	}
	if !split {
		return
	}
	rest := splitBlock(b, need, p.stash.get())
	p.writeBlockMeta(rest) // remainder's header (+footer)
	p.pushToBin(rest)
}

// pushToBin inserts a free block into the bin for its payload capacity.
func (p *GeneralPool) pushToBin(b *Block) {
	capacity := b.size - p.overheadBytes()
	p.bins[p.classOf(capacity)].Push(b)
}

// writeBlockMeta charges the header (and footer) writes for b.
func (p *GeneralPool) writeBlockMeta(b *Block) {
	p.ctx.Write(p.params.Layer, b.addr, 1)
	if p.params.Headers == HeaderBoundaryTag {
		p.ctx.Write(p.params.Layer, b.End()-simheap.WordSize, 1)
	}
}

// grow reserves a new arena able to hold at least need bytes and returns
// its spanning free block (not yet on any bin).
func (p *GeneralPool) grow(need int64) (*Block, error) {
	size := p.nextChunk
	if size < need {
		size = align(need, simheap.WordSize)
	}
	if p.params.MaxBytes > 0 && p.arenaBytes+size > p.params.MaxBytes {
		// Try a last exact-size extension inside the budget.
		size = p.params.MaxBytes - p.arenaBytes
		if size < need {
			return nil, errPoolBudget
		}
	}
	a, b, err := newArena(p.ctx, p.params.Layer, size, p.stash)
	if err != nil {
		return nil, err
	}
	p.arenas = append(p.arenas, a)
	p.arenaBytes += size
	if p.params.Growth == GrowDouble {
		p.nextChunk *= 2
	}
	p.writeBlockMeta(b) // initialise the spanning block's header
	return b, nil
}

// growCarved reserves a new arena and pre-splits it into blocks of
// exactly need bytes (the last one absorbs any sub-block tail), pushing
// all but the returned block onto their bin. This is the page-refill
// behaviour of segregated-storage allocators.
func (p *GeneralPool) growCarved(need int64) (*Block, error) {
	b, err := p.grow(need)
	if err != nil {
		return nil, err
	}
	first := b
	for b.size >= 2*need {
		rest := splitBlock(b, need, p.stash.get())
		p.writeBlockMeta(b)
		if b != first {
			p.pushToBin(b)
		}
		b = rest
	}
	p.writeBlockMeta(b)
	if b != first {
		p.pushToBin(b)
	}
	return first, nil
}

// lookup returns the live block ptr names, or nil.
func (p *GeneralPool) lookup(ptr Ptr) *Block {
	bp := p.live.get(ptr.h)
	if bp == nil || ptr.Layer != p.params.Layer || (*bp).addr+simheap.WordSize != ptr.Addr {
		return nil
	}
	return *bp
}

// Free releases the allocation ptr names.
func (p *GeneralPool) Free(ptr Ptr) error {
	b := p.lookup(ptr)
	if b == nil {
		return badFree(ptr)
	}
	p.live.drop(ptr.h)
	p.ctx.Read(p.params.Layer, b.addr, 1) // header read: size/status
	b.free = true
	p.writeBlockMeta(b) // mark free

	if p.params.Coalesce == CoalesceImmediate {
		b = p.coalesceNeighbours(b)
	}
	p.pushToBin(b)

	if p.params.Coalesce == CoalesceDeferred {
		p.frees++
		if p.frees >= p.params.CoalesceEvery {
			p.frees = 0
			p.sweep()
		}
	}
	return nil
}

// coalesceNeighbours merges b with its free physical neighbours and
// returns the merged block (not on any bin). Backward merging needs the
// boundary-tag footer to locate the predecessor.
func (p *GeneralPool) coalesceNeighbours(b *Block) *Block {
	if p.params.Headers == HeaderBoundaryTag && b.prevAdj != nil {
		// Read the predecessor's footer, sitting just before b.
		p.ctx.Read(p.params.Layer, b.addr-simheap.WordSize, 1)
		if prev := b.prevAdj; prev.free && prev.list != nil {
			prev.list.Remove(prev)
			p.stash.put(mergeWithNext(prev))
			b = prev
			p.writeBlockMeta(b)
		}
	}
	if next := b.nextAdj; next != nil {
		// Read the successor's header at addr+size.
		p.ctx.Read(p.params.Layer, b.End(), 1)
		if next.free && next.list != nil {
			next.list.Remove(next)
			p.stash.put(mergeWithNext(b))
			p.writeBlockMeta(b)
		}
	}
	return b
}

// sweep walks every arena merging runs of adjacent free blocks — the
// deferred-coalescing pass.
func (p *GeneralPool) sweep() {
	for i := range p.arenas {
		for b := p.arenas[i].first; b != nil; b = b.nextAdj {
			p.ctx.Read(p.params.Layer, b.addr, 1) // header read
			if !b.free {
				continue
			}
			merged := false
			for n := b.nextAdj; n != nil && n.free; n = b.nextAdj {
				p.ctx.Read(p.params.Layer, n.addr, 1)
				if n.list != nil {
					n.list.Remove(n)
				}
				if b.list != nil {
					b.list.Remove(b)
				}
				p.stash.put(mergeWithNext(b))
				merged = true
			}
			if merged {
				p.writeBlockMeta(b)
				if b.list == nil {
					p.pushToBin(b)
				}
			}
		}
	}
}

// ArenaBytes returns the total bytes reserved for arenas.
func (p *GeneralPool) ArenaBytes() int64 { return p.arenaBytes }

// FreeBlocks returns the total number of blocks across all bins
// (simulator introspection; charges nothing).
func (p *GeneralPool) FreeBlocks() int {
	n := 0
	for i := range p.bins {
		n += p.bins[i].Len()
	}
	return n
}

// FitIndexedBins returns the number of bins whose first/next-fit
// searches the order index answers now (simulator introspection; charges
// nothing).
func (p *GeneralPool) FitIndexedBins() int {
	n := 0
	for i := range p.bins {
		if p.bins[i].index.fitting(p.ctx) {
			n++
		}
	}
	return n
}

// checkInvariants verifies simulator-side consistency: adjacency chains
// cover each arena exactly, free blocks are on bins, live blocks are not,
// and every bin's list-order keys and indexes agree with its blocks (so a
// block's size never changed while it was listed). Tests call it after
// operation sequences.
func (p *GeneralPool) checkInvariants() error {
	for i, a := range p.arenas {
		addr := a.region.Base()
		var total int64
		for b := a.first; b != nil; b = b.nextAdj {
			if b.addr != addr {
				return fmt.Errorf("arena %d: block at %#x, expected %#x", i, b.addr, addr)
			}
			if b.size <= 0 {
				return fmt.Errorf("arena %d: non-positive block size %d", i, b.size)
			}
			if b.free && b.list == nil {
				return fmt.Errorf("arena %d: free block %v not on a bin", i, b)
			}
			if !b.free && b.list != nil {
				return fmt.Errorf("arena %d: live block %v on a bin", i, b)
			}
			if b.nextAdj != nil && b.nextAdj.prevAdj != b {
				return fmt.Errorf("arena %d: adjacency links broken at %v", i, b)
			}
			addr = b.End()
			total += b.size
		}
		if total != a.region.Size() {
			return fmt.Errorf("arena %d: blocks cover %d of %d bytes", i, total, a.region.Size())
		}
	}
	for c := range p.bins {
		if err := p.bins[c].check(); err != nil {
			return fmt.Errorf("bin %d: %w", c, err)
		}
	}
	return nil
}
