package alloc

import (
	"fmt"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// FreeList simulates one intrusive free list of a pool. On the target the
// head/tail/rover pointers live in the pool's metadata area and the link
// words live inside the free blocks themselves; every operation charges
// the word reads and writes the chosen discipline (order × linkage) would
// perform. The Go-side doubly-linked representation exists only so the
// simulator itself stays O(1) where the target is O(1).
//
// Where the target walks the list, the simulator walks it too and charges
// each visited block at its own address — unless the list was built on a
// flat context (simheap.Context.Flat), the context is still flat and the
// list is long. Then a best/worst-fit scan and an address-ordered insert
// walk are answered from host-side indexes (blockindex.go) in O(log n),
// and their reads are charged as one read of the walk's word count. A
// list builds its indexes when it reaches indexFrom blocks and drops them
// below indexDrop: on a short list the walk is cheaper than keeping an
// index. First, next and exact fit keep the walk: it stops at the first
// fit, a few blocks in.
type FreeList struct {
	ctx      *simheap.Context
	layer    memhier.LayerID
	metaAddr uint64 // address of the head word; tail at +1 word, rover at +2

	order ListOrder
	links ListLinks

	head, tail *Block
	rover      *Block // next-fit resume point
	count      int

	seq   uint64     // LIFO/FIFO pushes so far, counted while index != nil
	index *listIndex // nil when the list keeps no index
}

// A list indexes its blocks from indexFrom blocks on and drops the
// indexes again below indexDrop; the gap keeps a list hovering near one
// length from rebuilding them.
const (
	indexFrom = 64
	indexDrop = 16
)

// MetaWords is the number of metadata words each FreeList occupies in its
// pool's metadata area (head, tail, rover).
const MetaWords = 3

// NewFreeList returns an empty free list whose pointers live at metaAddr
// in the given layer.
func NewFreeList(ctx *simheap.Context, layer memhier.LayerID, metaAddr uint64, order ListOrder, links ListLinks) *FreeList {
	return newFreeList(ctx, layer, metaAddr, order, links, FirstFit, nil)
}

// newFreeList is NewFreeList for a list whose own searches use fit, with
// index nodes from slab (nil for a slab of its own): on a flat context a
// long best/worst-fit list keeps a size index, and a long address-ordered
// list an address index.
func newFreeList(ctx *simheap.Context, layer memhier.LayerID, metaAddr uint64, order ListOrder, links ListLinks, fit FitPolicy, slab *nodeSlab) *FreeList {
	l := &FreeList{ctx: ctx, layer: layer, metaAddr: metaAddr, order: order, links: links}
	bySize, byAddr := fit == BestFit || fit == WorstFit, order == AddrOrder
	if ctx.Flat() && (bySize || byAddr) {
		if slab == nil {
			slab = &nodeSlab{}
		}
		l.index = &listIndex{slab: slab, size: bySize, addr: byAddr}
	}
	return l
}

// Len returns the number of blocks on the list.
func (l *FreeList) Len() int { return l.count }

// Empty reports whether the list has no blocks.
func (l *FreeList) Empty() bool { return l.count == 0 }

// Head returns the first block without charging accesses (simulator
// introspection only).
func (l *FreeList) Head() *Block { return l.head }

// metaRead charges one pool-metadata word read (head/tail/rover).
func (l *FreeList) metaRead(word uint64)  { l.ctx.Read(l.layer, l.metaAddr+word*simheap.WordSize, 1) }
func (l *FreeList) metaWrite(word uint64) { l.ctx.Write(l.layer, l.metaAddr+word*simheap.WordSize, 1) }

// blockRead charges n word reads inside block b (header or link words).
func (l *FreeList) blockRead(b *Block, n uint64)  { l.ctx.Read(l.layer, b.addr, n) }
func (l *FreeList) blockWrite(b *Block, n uint64) { l.ctx.Write(l.layer, b.addr, n) }

// Push inserts b according to the list order, charging the discipline's
// accesses. b must be free and not on any list.
func (l *FreeList) Push(b *Block) {
	if b.list != nil {
		panic(fmt.Sprintf("alloc: %v already on a list", b))
	}
	if !b.free {
		panic(fmt.Sprintf("alloc: push of allocated %v", b))
	}
	switch l.order {
	case LIFO:
		// new.next = head; head = new.
		if l.index != nil {
			l.seq++
			b.key = ^l.seq
		}
		l.metaRead(0)
		l.blockWrite(b, 1) // link word
		l.metaWrite(0)
		if l.links == DoubleLink {
			l.blockWrite(b, 1) // prev = nil
			if l.head != nil {
				l.blockWrite(l.head, 1) // old head's prev = new
			}
		}
		l.insertFront(b)
	case FIFO:
		// tail.next = new; tail = new.
		if l.index != nil {
			l.seq++
			b.key = l.seq
		}
		l.metaRead(1)
		l.blockWrite(b, 1) // new.next = nil
		if l.tail == nil {
			l.metaWrite(0) // head = new
		} else {
			l.blockWrite(l.tail, 1) // old tail's next
		}
		l.metaWrite(1) // tail = new
		if l.links == DoubleLink {
			l.blockWrite(b, 1) // prev link
		}
		l.insertBack(b)
	case AddrOrder:
		// Walk from head to the insertion point.
		b.key = b.addr
		l.metaRead(0)
		var prev, cur *Block
		if l.index.ready(l.ctx) && l.index.addr {
			var below uint64
			below, prev, cur = l.index.neighbours(b.addr)
			l.ctx.Read(l.layer, l.metaAddr, below) // each below's next
		} else {
			cur = l.head
			for cur != nil && cur.addr < b.addr {
				l.blockRead(cur, 1) // read cur.next
				prev = cur
				cur = cur.flNext
			}
		}
		l.blockWrite(b, 1) // b.next = cur
		if prev == nil {
			l.metaWrite(0)
		} else {
			l.blockWrite(prev, 1)
		}
		if l.links == DoubleLink {
			l.blockWrite(b, 1) // b.prev
			if cur != nil {
				l.blockWrite(cur, 1) // cur.prev = b
			}
		}
		l.insertBetween(prev, b, cur)
	default:
		panic("alloc: unknown list order")
	}
	b.list = l
	l.count++
	if l.index != nil {
		l.index.pushed(l, b)
	}
}

// PopHead removes and returns the first block, or nil (charging only the
// head read) when empty.
func (l *FreeList) PopHead() *Block {
	l.metaRead(0)
	b := l.head
	if b == nil {
		return nil
	}
	l.blockRead(b, 1) // read b.next
	l.metaWrite(0)    // head = b.next
	if l.links == DoubleLink && b.flNext != nil {
		l.blockWrite(b.flNext, 1) // new head's prev = nil
	}
	if l.order == FIFO && b.flNext == nil {
		l.metaWrite(1) // tail = nil
	}
	l.unlink(b)
	if l.index != nil {
		l.index.unlinked(l, b)
	}
	return b
}

// Remove unlinks b from the list. With single linkage the target must
// rescan from the head to find the predecessor, and the scan is charged;
// with double linkage removal is O(1).
func (l *FreeList) Remove(b *Block) {
	if b.list != l {
		panic(fmt.Sprintf("alloc: %v not on this list", b))
	}
	switch l.links {
	case DoubleLink:
		l.blockRead(b, 2) // prev and next links
		if b.flPrev == nil {
			l.metaWrite(0)
		} else {
			l.blockWrite(b.flPrev, 1)
		}
		if b.flNext != nil {
			l.blockWrite(b.flNext, 1)
		}
	default: // SingleLink: scan for predecessor
		l.metaRead(0)
		if l.index.ready(l.ctx) && l.index.addr {
			below, _, _ := l.index.neighbours(b.addr)
			l.ctx.Read(l.layer, l.metaAddr, below)
		} else {
			for cur := l.head; cur != b; cur = cur.flNext {
				l.blockRead(cur, 1)
			}
		}
		l.blockRead(b, 1) // b.next
		if b.flPrev == nil {
			l.metaWrite(0)
		} else {
			l.blockWrite(b.flPrev, 1)
		}
	}
	if l.order == FIFO && b.flNext == nil {
		l.metaWrite(1) // tail moved
	}
	l.unlink(b)
	if l.index != nil {
		l.index.unlinked(l, b)
	}
}

// removeAfterScan unlinks b when the caller's search already visited its
// predecessor (so no rescan is charged even with single linkage).
func (l *FreeList) removeAfterScan(b *Block) {
	if b.list != l {
		panic(fmt.Sprintf("alloc: %v not on this list", b))
	}
	if b.flPrev == nil {
		l.metaWrite(0)
	} else {
		l.blockWrite(b.flPrev, 1)
	}
	if l.links == DoubleLink && b.flNext != nil {
		l.blockWrite(b.flNext, 1)
	}
	if l.order == FIFO && b.flNext == nil {
		l.metaWrite(1)
	}
	l.unlink(b)
	if l.index != nil {
		l.index.unlinked(l, b)
	}
}

// Take searches the list under the fit policy for a block with total size
// >= need (== need for ExactFit), unlinks and returns it; nil when no
// block qualifies. The traversal charges two word reads per visited block
// (header for the size, link word to advance). Under a flat cost model
// the n visited blocks are charged as one read of 2n words after the
// scan, which costs the same; otherwise each block is charged at its own
// address, in list order.
func (l *FreeList) Take(fit FitPolicy, need int64) *Block {
	l.metaRead(0)
	if l.head == nil {
		return nil
	}
	flat := l.ctx.Flat()
	var scanned uint64 // blocks visited but not yet charged (flat only)
	visit := func(b *Block) {
		if flat {
			scanned++
		} else {
			l.blockRead(b, 2)
		}
	}
	var found *Block
	switch fit {
	case FirstFit, ExactFit:
		for cur := l.head; cur != nil; cur = cur.flNext {
			visit(cur)
			if fits(fit, cur.size, need) {
				found = cur
				break
			}
		}
	case NextFit:
		l.metaRead(2) // rover
		start := l.rover
		if start == nil || start.list != l {
			start = l.head
		}
		cur := start
		for {
			visit(cur)
			if fits(fit, cur.size, need) {
				found = cur
				break
			}
			cur = cur.flNext
			if cur == nil {
				cur = l.head // wrap: re-read head pointer
				l.metaRead(0)
			}
			if cur == start {
				break
			}
		}
		if found != nil {
			l.rover = found.flNext
			l.metaWrite(2)
		}
	case BestFit, WorstFit:
		if l.index.ready(l.ctx) && l.index.size {
			// The scan visits every block; the index finds its winner.
			scanned = uint64(l.count)
			if fit == BestFit {
				found = l.index.bestFit(need)
			} else {
				found = l.index.worstFit(need)
			}
			break
		}
		for cur := l.head; cur != nil; cur = cur.flNext {
			visit(cur)
			if cur.size < need {
				continue
			}
			if found == nil ||
				(fit == BestFit && cur.size < found.size) ||
				(fit == WorstFit && cur.size > found.size) {
				found = cur
			}
		}
	default:
		panic("alloc: unknown fit policy")
	}
	if scanned > 0 {
		l.ctx.Read(l.layer, l.head.addr, 2*scanned)
	}
	if found == nil {
		return nil
	}
	// The search already visited the winner's predecessor (fit scans
	// remember it on the target), so unlinking is O(1) in all cases.
	l.removeAfterScan(found)
	return found
}

func fits(fit FitPolicy, have, need int64) bool {
	if fit == ExactFit {
		return have == need
	}
	return have >= need
}

// --- Go-side linkage maintenance (no charging) ---

func (l *FreeList) insertFront(b *Block) { l.insertBetween(nil, b, l.head) }
func (l *FreeList) insertBack(b *Block)  { l.insertBetween(l.tail, b, nil) }

func (l *FreeList) insertBetween(prev, b, next *Block) {
	b.flPrev, b.flNext = prev, next
	if prev == nil {
		l.head = b
	} else {
		prev.flNext = b
	}
	if next == nil {
		l.tail = b
	} else {
		next.flPrev = b
	}
}

func (l *FreeList) unlink(b *Block) {
	if b.flPrev == nil {
		l.head = b.flNext
	} else {
		b.flPrev.flNext = b.flNext
	}
	if b.flNext == nil {
		l.tail = b.flPrev
	} else {
		b.flNext.flPrev = b.flPrev
	}
	if l.rover == b {
		l.rover = b.flNext
	}
	b.flPrev, b.flNext, b.list = nil, nil, nil
	l.count--
}

// check verifies the list's links and, on a list that keeps an index,
// the list-order key invariant and the index: keys rise strictly from
// head to tail (an address-ordered list's key is the address), and the
// index holds exactly the listed blocks under their current size and
// key.
func (l *FreeList) check() error {
	n := 0
	var prev *Block
	for b := l.head; b != nil; b = b.flNext {
		if b.list != l {
			return fmt.Errorf("alloc: %v linked into a list it does not name", b)
		}
		if l.index != nil && (prev != nil && prev.key >= b.key || l.order == AddrOrder && b.key != b.addr) {
			return fmt.Errorf("alloc: list-order key %d of %v out of order", b.key, b)
		}
		prev = b
		n++
	}
	if n != l.count {
		return fmt.Errorf("alloc: list links %d blocks, counts %d", n, l.count)
	}
	if l.index != nil {
		return l.index.check(l, n)
	}
	return nil
}
