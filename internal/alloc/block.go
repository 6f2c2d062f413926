package alloc

import (
	"fmt"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// Block is the simulator's view of one heap block: a contiguous byte run
// inside an arena, either free (on a free list, links stored in its first
// payload words on the target) or allocated. size includes the metadata
// overhead (header word, plus footer word under boundary tags).
//
// Blocks form a doubly-linked adjacency chain per arena (prevAdj/nextAdj)
// mirroring physical contiguity; splitting and coalescing splice it. The
// chain itself is simulator bookkeeping — the target finds neighbours
// arithmetically (next = addr+size) or via boundary tags, and the access
// charges in generalpool.go model those target-side reads, not this chain.
type Block struct {
	addr uint64 // address of the block start (header word)
	size int64  // total bytes including overhead
	free bool
	node int32 // b's node in its list's indexes (blockindex.go), 0 for none

	prevAdj, nextAdj *Block // physical neighbours within the arena

	flPrev, flNext *Block // free-list links (simulator side)
	list           *FreeList

	tag uint64 // fixed-pool slot: the live Ptr's handle tag, 0 while free

	// key orders b within a list that keeps an index and never changes
	// while b is listed: a falling push sequence under LIFO, a rising one
	// under FIFO, the address under AddrOrder.
	key uint64
}

// Addr returns the block's start address.
func (b *Block) Addr() uint64 { return b.addr }

// Size returns the block's total size in bytes.
func (b *Block) Size() int64 { return b.size }

// Free reports whether the block is on a free list.
func (b *Block) Free() bool { return b.free }

// End returns the first address past the block.
func (b *Block) End() uint64 { return b.addr + uint64(b.size) }

func (b *Block) String() string {
	state := "alloc"
	if b.free {
		state = "free"
	}
	return fmt.Sprintf("block[%#x +%d %s]", b.addr, b.size, state)
}

// arena is one region reserved from a layer, carved into blocks.
type arena struct {
	region *simheap.Region
	first  *Block // head of the adjacency chain
}

// newArena reserves size bytes from the layer and returns the arena with
// a single free-spanning block from stash.
func newArena(ctx *simheap.Context, layer memhier.LayerID, size int64, stash *BlockStash) (*arena, *Block, error) {
	region, err := reserve(ctx, layer, size)
	if err != nil {
		return nil, nil, err
	}
	b := stash.get()
	*b = Block{addr: region.Base(), size: size, free: true}
	a := &arena{region: region, first: b}
	return a, b, nil
}

// BlockStash hands out Block objects for the general pools built on it:
// those a merge gave back first, then the next one from its pages, in
// the order the pages were first filled. Reclaim retires the pools and
// starts the pages over, taking back their live-allocation tables and
// index-node slabs too, so a warm Replayer (which keeps one) allocates no
// Block, and each run finds its Blocks laid out in memory in the order it
// creates them, as fresh allocations would be. It is not safe for
// concurrent use.
type BlockStash struct {
	pages      [][]Block
	page, next int    // the next Block to hand out: pages[page][next]
	n          int    // Blocks in pages
	free       *Block // given back by merges since the last Reclaim, linked via flNext

	pools []*GeneralPool      // built on the stash since the last Reclaim
	live  handleTable[*Block] // a retired pool's table storage, for the next
	nodes nodeSlab            // and its index-node slab
}

// Len returns the number of Blocks the stash owns.
func (s *BlockStash) Len() int { return s.n }

// get returns a Block no pool links, for the caller to overwrite.
func (s *BlockStash) get() *Block {
	if b := s.free; b != nil {
		s.free = b.flNext
		return b
	}
	if s.page == len(s.pages) {
		size := min(16<<len(s.pages), 1024)
		s.pages = append(s.pages, make([]Block, size))
		s.n += size
	}
	b := &s.pages[s.page][s.next]
	if s.next++; s.next == len(s.pages[s.page]) {
		s.page, s.next = s.page+1, 0
	}
	return b
}

// put gives back a Block no pool links any more.
func (s *BlockStash) put(b *Block) {
	*b = Block{flNext: s.free}
	s.free = b
}

// Reclaim retires every pool built on the stash since the last Reclaim
// and makes all their Blocks, free and live, available again. Those
// pools must not be used again.
func (s *BlockStash) Reclaim() {
	for i, p := range s.pools {
		if cap(p.live.entries) > cap(s.live.entries) {
			s.live = handleTable[*Block]{entries: p.live.entries[:0], free: p.live.free[:0]}
		}
		if cap(p.nodes.nodes) > cap(s.nodes.nodes) {
			s.nodes = nodeSlab{nodes: p.nodes.nodes[:0], free: p.nodes.free[:0]}
		}
		p.arenas, p.bins, p.live, p.nodes = nil, nil, handleTable[*Block]{}, nodeSlab{}
		s.pools[i] = nil
	}
	s.pools = s.pools[:0]
	s.page, s.next, s.free = 0, 0, nil
}

// splitBlock carves the trailing part of b into rest, a Block no pool
// links, and returns it. The caller charges the header writes; this only
// updates simulator bookkeeping. b must be at least remainder+1 bytes
// large.
func splitBlock(b *Block, keep int64, rest *Block) *Block {
	if keep <= 0 || keep >= b.size {
		panic(fmt.Sprintf("alloc: bad split keep=%d of %v", keep, b))
	}
	*rest = Block{
		addr: b.addr + uint64(keep),
		size: b.size - keep,
		free: true,
	}
	b.size = keep
	rest.prevAdj = b
	rest.nextAdj = b.nextAdj
	if b.nextAdj != nil {
		b.nextAdj.prevAdj = rest
	}
	b.nextAdj = rest
	return rest
}

// mergeWithNext absorbs b's physical successor into b and returns the
// absorbed Block object so the caller can recycle it. The successor must
// be free and not on any list.
func mergeWithNext(b *Block) *Block {
	n := b.nextAdj
	if n == nil || !n.free || n.list != nil {
		panic(fmt.Sprintf("alloc: bad merge of %v with %v", b, n))
	}
	b.size += n.size
	b.nextAdj = n.nextAdj
	if n.nextAdj != nil {
		n.nextAdj.prevAdj = b
	}
	n.prevAdj, n.nextAdj = nil, nil
	return n
}
