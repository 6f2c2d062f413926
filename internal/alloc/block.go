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

	tag uint64 // fixed-pool slot: the live Ptr's handle tag; while free, the slot's ordinal

	// key orders b within a list that keeps an index and never changes
	// while b is listed: a falling push sequence under LIFO, a rising one
	// under FIFO, the address under AddrOrder. While b is on no such
	// list, key holds nothing.
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
	region simheap.Region
	first  *Block // head of the adjacency chain
}

// newArena reserves size bytes from the layer and returns the arena with
// a single free-spanning block from stash.
func newArena(ctx *simheap.Context, layer memhier.LayerID, size int64, stash *BlockStash) (arena, *Block, error) {
	region, err := reserve(ctx, layer, size)
	if err != nil {
		return arena{}, nil, err
	}
	b := stash.get()
	*b = Block{addr: region.Base(), size: size, free: true}
	return arena{region: region, first: b}, b, nil
}

// BlockStash holds what the allocators built on it are made of, for
// reuse: their Blocks, their GeneralPool, FixedPool and Composed structs
// with the slices those hold (bins, arenas, live-allocation tables,
// index-node slabs, page tables), fixed-pool arenas and slot pages, and
// the size-class maps of the specs it has parsed. Reclaim retires every
// allocator built on it since the last Reclaim and makes all of it
// available again, so a warm Replayer (which keeps one) builds each
// configuration's allocator without allocating, and each run finds its
// Blocks laid out in memory in the order it creates them, as fresh
// allocations would be. Blocks are handed out as those a merge gave back
// first, then the next one from the pages, in the order the pages were
// first filled. Build on a nil stash gives the allocator a stash of its
// own. It is not safe for concurrent use.
type BlockStash struct {
	pages      [][]Block
	page, next int    // the next Block to hand out: pages[page][next]
	n          int    // Blocks in pages
	free       *Block // given back by merges since the last Reclaim, linked via flNext

	// The structs built on the stash: the first nGeneral, nFixed and
	// nComposed are in use since the last Reclaim, the rest wait for
	// reuse.
	general   []*GeneralPool
	fixed     []*FixedPool
	composed  []*Composed
	nGeneral  int
	nFixed    int
	nComposed int

	fixedArenas []*fixedArena // retired fixed-pool arenas
	slotPages   []*slotPage   // slot pages retired or reclaimed arenas gave back

	classes []parsedClasses // parsed class specs, at most maxClassSpecs
}

// parsedClasses is a general pool's class spec, parsed: the size-class
// map of a segregated pool or, for a buddy spec, no map and the buddy
// system's block bounds. Size-class maps are immutable, so the pools
// built on one stash share them.
type parsedClasses struct {
	spec               string
	classes            SizeClasser // nil for a buddy spec
	buddyMin, buddyMax int64
}

// maxClassSpecs bounds the stash's parsed class specs: a space's
// configurations use a handful of specs, and a stash that meets more
// starts its list over.
const maxClassSpecs = 16

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

// slotPage returns an empty fixed-pool slot page.
func (s *BlockStash) slotPage() *slotPage {
	n := len(s.slotPages)
	if n == 0 {
		return new(slotPage)
	}
	pg := s.slotPages[n-1]
	s.slotPages = s.slotPages[:n-1]
	// Clear the slots: an uncarved slot must hold no tag a Ptr could
	// name.
	*pg = slotPage{}
	return pg
}

// retireFixedArena gives back arena a of a fixed pool, with its slot
// pages.
func (s *BlockStash) retireFixedArena(a *fixedArena) {
	s.slotPages = append(s.slotPages, a.pages...)
	clear(a.pages)
	*a = fixedArena{pages: a.pages[:0]}
	s.fixedArenas = append(s.fixedArenas, a)
}

// fixedArena returns an empty fixed-pool arena over region.
func (s *BlockStash) fixedArena(region simheap.Region) *fixedArena {
	n := len(s.fixedArenas)
	if n == 0 {
		return &fixedArena{region: region}
	}
	a := s.fixedArenas[n-1]
	s.fixedArenas = s.fixedArenas[:n-1]
	a.region = region
	return a
}

// reuse returns the first of structs past the n in use, making one when
// all are, and counts it in use. The struct keeps what its last use left,
// for the caller to reset.
func reuse[T any](structs *[]*T, n *int) *T {
	if *n == len(*structs) {
		*structs = append(*structs, new(T))
	}
	*n++
	return (*structs)[*n-1]
}

// newComposed returns an empty Composed on ctx, its fixed-pool slice kept
// for reuse.
func (s *BlockStash) newComposed(ctx *simheap.Context) *Composed {
	c := reuse(&s.composed, &s.nComposed)
	*c = Composed{ctx: ctx, fixed: c.fixed[:0]}
	return c
}

// classSpec returns spec parsed, parsing a spec only the first time the
// stash sees it. A nil stash parses every time.
func (s *BlockStash) classSpec(spec string) (parsedClasses, error) {
	if s != nil {
		for _, e := range s.classes {
			if e.spec == spec {
				return e, nil
			}
		}
	}
	p, err := parseClassSpec(spec)
	if err != nil || s == nil {
		return p, err
	}
	if len(s.classes) == maxClassSpecs {
		s.classes = s.classes[:0]
	}
	s.classes = append(s.classes, p)
	return p, nil
}

// Reclaim retires every allocator built on the stash since the last
// Reclaim and makes all of what they were made of, their Blocks free and
// live, available again. Those allocators must not be used again.
func (s *BlockStash) Reclaim() {
	for _, p := range s.fixed[:s.nFixed] {
		for _, a := range p.arenas {
			s.retireFixedArena(a)
		}
		clear(p.arenas)
		clear(p.pages)
	}
	for _, c := range s.composed[:s.nComposed] {
		clear(c.fixed)
		c.general = nil
	}
	s.nGeneral, s.nFixed, s.nComposed = 0, 0, 0
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
