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

	prevAdj, nextAdj *Block // physical neighbours within the arena

	flPrev, flNext *Block // free-list links (simulator side)
	list           *FreeList

	arena *arena

	tag uint64 // fixed-pool slot: the live Ptr's handle tag, 0 while free
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
// a single free-spanning block.
func newArena(ctx *simheap.Context, layer memhier.LayerID, size int64) (*arena, *Block, error) {
	region, err := reserve(ctx, layer, size)
	if err != nil {
		return nil, nil, err
	}
	a := &arena{region: region}
	b := &Block{addr: region.Base(), size: size, free: true, arena: a}
	a.first = b
	return a, b, nil
}

// splitBlock carves the trailing part of b into a new block of size
// remainder and returns it. The caller charges the header writes; this
// only updates simulator bookkeeping. b must be at least remainder+1
// bytes large. reuse, when non-nil, is recycled as the remainder's Block
// object so steady-state split/merge churn performs no Go allocations.
func splitBlock(b *Block, keep int64, reuse *Block) *Block {
	if keep <= 0 || keep >= b.size {
		panic(fmt.Sprintf("alloc: bad split keep=%d of %v", keep, b))
	}
	rest := reuse
	if rest == nil {
		rest = &Block{}
	}
	*rest = Block{
		addr:  b.addr + uint64(keep),
		size:  b.size - keep,
		free:  true,
		arena: b.arena,
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
