package alloc

import (
	"fmt"

	"dmexplore/internal/simheap"
)

// listIndex holds a free list's host-side indexes. Under the flat cost
// model the charge of a list walk depends only on how many blocks it
// visits, which the indexes answer in O(log n); FreeList then charges
// exactly what the walk would have. The indexes themselves charge
// nothing.
//
// Both are treaps over nodes in a slab the lists of a pool share, so a
// Block carries only its node's id. The size index orders nodes by
// (size, list-order key), so the first node of a size is the first block
// of that size in list order. The order index orders them by list-order
// key — the address on an address-ordered list, the push sequence on a
// LIFO or FIFO one — and keeps each subtree's node count and largest
// size, giving a block's rank in the list and the first block in list
// order, from any rank on, that fits a request.
type listIndex struct {
	slab  *nodeSlab
	size  bool    // best/worst fit: a size index from indexFrom blocks on
	addr  bool    // address order: an order index from indexFrom blocks on
	built [2]bool // which indexes hold every listed block
	root  [2]int32

	// The walk-length trigger of first/next-fit searches: the Takes in
	// the current window and the blocks they visited, each walk counted
	// up to walkCap, and how many windows in a row (up to 2) had long
	// walks. long is set from the second such window until a window's
	// walks are short, and while it is the order index answers the
	// searches.
	takes   uint32
	visited uint32
	streak  uint8
	long    bool
}

// The two indexes, as subscripts of listIndex.root and indexNode.kids.
const (
	sizeIdx  = 0
	orderIdx = 1
)

// A first/next-fit list builds its order index when the mean walk of two
// windows of walkWindow Takes in a row reaches indexFrom blocks, and
// drops it when the mean of one falls below indexDrop. The window is
// long because long walks are rare even where they cost most: on the
// VTC trace's single-class next-fit lists nine walks in ten visit at
// most 4 blocks, and the rest, up to the whole 8k-block list, make the
// mean 474–610. Each walk counts at most walkCap blocks, so no fewer
// than eight long walks in each of two windows start an index, and the
// lists whose walks average 12–36 blocks with rare bursts of long ones
// do not keep building one.
const (
	walkWindow = 256
	walkCap    = walkWindow * indexFrom / 8
)

// indexNode is one listed block's entry in its list's indexes. It copies
// the block's size and list-order key, which never change while the
// block is listed.
type indexNode struct {
	b     *Block
	size  int64
	key   uint64
	max   int64       // largest size in the order-index subtree
	kids  [2][2]int32 // [index][left, right] node ids, 0 for none
	below int32       // nodes in the order-index subtree
	prio  uint32
}

// nodeSlab holds index nodes in fixed-size pages, so it grows without
// copying; id 0 is never handed out, so 0 means none, and its node stays
// zero (no nodes, largest size 0). Released ids are chained through
// their kids[0][0].
type nodeSlab struct {
	pages []*nodePage
	n     int32 // ids handed out from the pages so far, 0 included
	free  int32 // the last released id, 0 for none
	path  []int32
}

const (
	nodePageShift = 8
	nodePageLen   = 1 << nodePageShift
)

type nodePage [nodePageLen]indexNode

// at returns node id.
func (s *nodeSlab) at(id int32) *indexNode {
	return &s.pages[id>>nodePageShift][id&(nodePageLen-1)]
}

// alloc enters b in the slab and returns its node's id.
func (s *nodeSlab) alloc(b *Block) int32 {
	id := s.free
	if id != 0 {
		s.free = s.at(id).kids[0][0]
	} else {
		if s.n == 0 {
			s.n = 1 // id 0 is none
		}
		id = s.n
		if int(id>>nodePageShift) == len(s.pages) {
			s.pages = append(s.pages, new(nodePage))
		}
		s.n++
	}
	*s.at(id) = indexNode{b: b, size: b.size, key: b.key, max: b.size, below: 1, prio: prio(b.addr)}
	b.node = id
	return id
}

func (s *nodeSlab) release(b *Block) {
	n := s.at(b.node)
	n.b = nil
	n.kids[0][0] = s.free
	s.free = b.node
	b.node = 0
}

// prio is a node's treap priority, hashed from the block's address so
// the tree shape is deterministic and independent of insertion order.
func prio(addr uint64) uint32 {
	z := addr + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return uint32((z ^ z>>31) >> 32)
}

// sized reports whether the size index may answer a best/worst-fit scan
// on ctx now.
func (x *listIndex) sized(ctx *simheap.Context) bool {
	return x.built[sizeIdx] && ctx.Flat()
}

// ranked reports whether the order index may answer an insert walk or a
// predecessor scan on ctx now.
func (x *listIndex) ranked(ctx *simheap.Context) bool {
	return x.built[orderIdx] && ctx.Flat()
}

// fitting reports whether the order index answers first/next-fit
// searches on ctx now: it is built and recent walks were long.
func (x *listIndex) fitting(ctx *simheap.Context) bool {
	return x.long && x.built[orderIdx] && ctx.Flat()
}

// pushed enters b, just pushed onto l, into the built indexes, and builds
// the length-triggered ones once l reaches indexFrom blocks. FreeList
// calls it only when an index is built or l just reached indexFrom.
func (x *listIndex) pushed(l *FreeList, b *Block) {
	if x.built != [2]bool{} {
		x.add(b)
	}
	if l.count == indexFrom && l.ctx.Flat() {
		if x.size && !x.built[sizeIdx] {
			x.build(l, sizeIdx)
		}
		if x.addr && !x.built[orderIdx] {
			x.build(l, orderIdx)
		}
	}
}

// unlinked drops b, just unlinked from l and indexed (b.node != 0), and
// drops the indexes altogether once l falls below indexDrop blocks.
func (x *listIndex) unlinked(l *FreeList, b *Block) {
	if l.count < indexDrop {
		x.slab.release(b)
		x.drop(l, sizeIdx)
		x.drop(l, orderIdx)
		return
	}
	for t, built := range x.built {
		if built {
			x.remove(t, b.node)
		}
	}
	x.slab.release(b)
}

// walked ends a window of first/next-fit searches on l, whose visited
// blocks Take counts into x.visited: it builds the order index once two
// windows in a row had long walks, and drops it after one with short
// walks (an address-ordered list keeps it for its inserts, by length).
func (x *listIndex) walked(l *FreeList) {
	mean := x.visited / walkWindow
	x.takes, x.visited = 0, 0
	switch {
	case mean >= indexFrom && l.ctx.Flat():
		if x.streak = min(x.streak+1, 2); x.streak < 2 {
			return
		}
		x.long = true
		if !x.built[orderIdx] {
			x.build(l, orderIdx)
		}
	case mean < indexDrop:
		x.streak, x.long = 0, false
		if !x.addr {
			x.drop(l, orderIdx)
		}
	default:
		x.streak = 0
	}
}

// build enters every block listed on l into index t.
func (x *listIndex) build(l *FreeList, t int) {
	x.built[t] = true
	if t == orderIdx {
		x.buildOrder(l)
		return
	}
	for c := l.head; c != nil; c = c.flNext {
		if c.node == 0 {
			x.slab.alloc(c)
		}
		x.insert(t, c.node)
	}
}

// buildOrder builds the order index in one pass down l, whose keys rise
// from head to tail: each node goes to the bottom of the right spine,
// taking as its left subtree the spine nodes of lower priority above
// it. A node leaves the spine only once its subtree is complete, so its
// counts are taken then.
func (x *listIndex) buildOrder(l *FreeList) {
	s := x.slab
	spine := s.path[:0]
	for c := l.head; c != nil; c = c.flNext {
		if c.node == 0 {
			s.alloc(c)
		}
		id := c.node
		n := s.at(id)
		var last int32
		for len(spine) > 0 && s.at(spine[len(spine)-1]).prio < n.prio {
			last = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
			x.recount(orderIdx, s.at(last))
		}
		n.kids[orderIdx] = [2]int32{last, 0}
		if len(spine) > 0 {
			s.at(spine[len(spine)-1]).kids[orderIdx][1] = id
		}
		spine = append(spine, id)
	}
	for i := len(spine) - 1; i >= 0; i-- {
		x.recount(orderIdx, s.at(spine[i]))
	}
	x.root[orderIdx] = 0
	if len(spine) > 0 {
		x.root[orderIdx] = spine[0]
	}
	s.path = spine
}

// drop empties index t, releasing the nodes of l's blocks when no index
// is left.
func (x *listIndex) drop(l *FreeList, t int) {
	if !x.built[t] {
		return
	}
	x.root[t], x.built[t] = 0, false
	if x.built != [2]bool{} {
		return
	}
	for c := l.head; c != nil; c = c.flNext {
		if c.node != 0 {
			x.slab.release(c)
		}
	}
}

func (x *listIndex) add(b *Block) {
	id := x.slab.alloc(b)
	for t, built := range x.built {
		if built {
			x.insert(t, id)
		}
	}
}

func less(t int, a, b *indexNode) bool {
	if t == orderIdx {
		return a.key < b.key
	}
	return a.size < b.size || a.size == b.size && a.key < b.key
}

// recount refreshes n's order-subtree count and largest size after its
// children moved.
func (x *listIndex) recount(t int, n *indexNode) {
	if t == orderIdx {
		l, r := x.slab.at(n.kids[t][0]), x.slab.at(n.kids[t][1])
		n.below = 1 + l.below + r.below
		n.max = max(n.size, l.max, r.max)
	}
}

func (x *listIndex) insert(t int, id int32) {
	s := x.slab
	b := s.at(id)
	link := &x.root[t]
	for n := *link; n != 0 && s.at(n).prio > b.prio; n = *link {
		nn := s.at(n)
		if t == orderIdx {
			nn.below++
			nn.max = max(nn.max, b.size)
		}
		if less(t, b, nn) {
			link = &nn.kids[t][0]
		} else {
			link = &nn.kids[t][1]
		}
	}
	b.kids[t][0], b.kids[t][1] = x.split(t, *link, b)
	x.recount(t, b)
	*link = id
}

// split divides subtree n into the nodes ordered before b and the rest.
// A node whose children stay as they were keeps its counts: a LIFO push,
// which goes before every node, or a FIFO push, after every node,
// recounts nothing.
func (x *listIndex) split(t int, n int32, b *indexNode) (lo, hi int32) {
	if n == 0 {
		return 0, 0
	}
	nn := x.slab.at(n)
	if less(t, nn, b) {
		lo = n
		nn.kids[t][1], hi = x.split(t, nn.kids[t][1], b)
		if hi == 0 {
			return lo, hi
		}
	} else {
		hi = n
		lo, nn.kids[t][0] = x.split(t, nn.kids[t][0], b)
		if lo == 0 {
			return lo, hi
		}
	}
	x.recount(t, nn)
	return lo, hi
}

// remove takes node id out of index t. In the order index each node on
// the path from the root loses one from its count on the way down; on
// the way up a largest size is refreshed only where it may have been
// the removed block's, up to the first node whose largest size is
// larger, as every node above it has a larger one too.
func (x *listIndex) remove(t int, id int32) {
	s := x.slab
	b := s.at(id)
	link := &x.root[t]
	path := s.path[:0]
	for n := *link; n != id; n = *link {
		nn := s.at(n)
		if t == orderIdx {
			nn.below--
			path = append(path, n)
		}
		if less(t, b, nn) {
			link = &nn.kids[t][0]
		} else {
			link = &nn.kids[t][1]
		}
	}
	*link = x.merge(t, b.kids[t][0], b.kids[t][1])
	for i := len(path) - 1; i >= 0; i-- {
		nn := s.at(path[i])
		if nn.max > b.size {
			break
		}
		nn.max = max(nn.size, s.at(nn.kids[t][0]).max, s.at(nn.kids[t][1]).max)
	}
	s.path = path
}

// merge joins two subtrees, every node of a ordered before every node
// of b.
func (x *listIndex) merge(t int, a, b int32) int32 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	na, nb := x.slab.at(a), x.slab.at(b)
	if na.prio > nb.prio {
		na.kids[t][1] = x.merge(t, na.kids[t][1], b)
		x.recount(t, na)
		return a
	}
	nb.kids[t][0] = x.merge(t, a, nb.kids[t][0])
	x.recount(t, nb)
	return b
}

// bestFit returns the first block of size at least need in list order,
// among the smallest such, or nil.
func (x *listIndex) bestFit(need int64) *Block {
	s := x.slab
	var found int32
	for n := x.root[sizeIdx]; n != 0; {
		if nn := s.at(n); nn.size >= need {
			found = n
			n = nn.kids[sizeIdx][0]
		} else {
			n = nn.kids[sizeIdx][1]
		}
	}
	return s.at(found).b
}

// worstFit returns the first block of the largest size in list order,
// or nil when that size is below need.
func (x *listIndex) worstFit(need int64) *Block {
	s := x.slab
	n := x.root[sizeIdx]
	for n != 0 && s.at(n).kids[sizeIdx][1] != 0 {
		n = s.at(n).kids[sizeIdx][1]
	}
	if n == 0 || s.at(n).size < need {
		return nil
	}
	return x.bestFit(s.at(n).size)
}

// rank returns the number of listed blocks whose list-order key is below
// key, and the closest listed block on either side of it.
func (x *listIndex) rank(key uint64) (below uint64, prev, next *Block) {
	s := x.slab
	for n := x.root[orderIdx]; n != 0; {
		nn := s.at(n)
		if nn.key < key {
			below += uint64(s.at(nn.kids[orderIdx][0]).below) + 1
			prev = nn.b
			n = nn.kids[orderIdx][1]
		} else {
			next = nn.b
			n = nn.kids[orderIdx][0]
		}
	}
	return below, prev, next
}

// firstFit returns the first node in list order of subtree n, whose
// first node has rank base, with size at least need, and its rank; 0
// when there is none.
func (x *listIndex) firstFit(n, base int32, need int64) (int32, int32) {
	s := x.slab
	if s.at(n).max < need {
		return 0, 0
	}
	for {
		nn := s.at(n)
		l := s.at(nn.kids[orderIdx][0])
		if l.max >= need {
			n = nn.kids[orderIdx][0]
			continue
		}
		base += l.below
		if nn.size >= need {
			return n, base
		}
		base++
		n = nn.kids[orderIdx][1]
	}
}

// fitFrom is firstFit among the nodes of rank lo or more.
func (x *listIndex) fitFrom(n, base, lo int32, need int64) (int32, int32) {
	s := x.slab
	for n != 0 {
		if lo <= base {
			return x.firstFit(n, base, need)
		}
		nn := s.at(n)
		if nn.max < need || base+nn.below <= lo {
			return 0, 0
		}
		l := nn.kids[orderIdx][0]
		mid := base + s.at(l).below // n's rank
		if lo < mid {
			if id, r := x.fitFrom(l, base, lo, need); id != 0 {
				return id, r
			}
			if nn.size >= need {
				return n, mid
			}
			return x.firstFit(nn.kids[orderIdx][1], mid+1, need)
		}
		if lo == mid && nn.size >= need {
			return n, mid
		}
		base = mid + 1
		n = nn.kids[orderIdx][1]
	}
	return 0, 0
}

// fit answers the walk of l from start for a block of at least need
// bytes: first fit walks from the head to the tail, next fit (wrap) from
// its rover round to where it began. It returns the block the walk stops
// at (nil when none fits), the blocks it visits, and whether it passed
// the tail, where a next-fit walk re-reads the head pointer.
func (x *listIndex) fit(l *FreeList, start *Block, wrap bool, need int64) (found *Block, visited uint64, wrapped bool) {
	root := x.root[orderIdx]
	var lo int32
	if start != l.head {
		below, _, _ := x.rank(start.key)
		lo = int32(below)
	}
	if id, r := x.fitFrom(root, 0, lo, need); id != 0 {
		return x.slab.at(id).b, uint64(r-lo) + 1, false
	}
	if !wrap {
		return nil, uint64(l.count), false
	}
	// Every block from start on is too small, so a fit below start is
	// the first fit of the whole list.
	if id, r := x.firstFit(root, 0, need); id != 0 {
		return x.slab.at(id).b, uint64(l.count) - uint64(lo) + uint64(r) + 1, true
	}
	return nil, uint64(l.count), true
}

// check verifies the indexes against l's n blocks: every listed block
// has a node holding its current size and key, found where each built
// index expects it, and each tree's order, heap, subtree counts and
// largest sizes hold.
func (x *listIndex) check(l *FreeList, n int) error {
	if x.built == [2]bool{} {
		return nil
	}
	s := x.slab
	for b := l.head; b != nil; b = b.flNext {
		if b.node <= 0 || b.node >= s.n || s.at(b.node).b != b {
			return fmt.Errorf("alloc: listed %v has no index node", b)
		}
		if nb := s.at(b.node); nb.size != b.size || nb.key != b.key {
			return fmt.Errorf("alloc: %v indexed as size %d key %d, listed with key %d", b, nb.size, nb.key, b.key)
		}
		for t, built := range x.built {
			cur := x.root[t]
			for built && cur != 0 && cur != b.node {
				if less(t, s.at(b.node), s.at(cur)) {
					cur = s.at(cur).kids[t][0]
				} else {
					cur = s.at(cur).kids[t][1]
				}
			}
			if built && cur == 0 {
				return fmt.Errorf("alloc: %v is not where index %d expects it", b, t)
			}
		}
	}
	for t, built := range x.built {
		if !built {
			continue
		}
		var prev *indexNode
		var walk func(id int32) (int32, int64, error)
		walk = func(id int32) (int32, int64, error) {
			if id == 0 {
				return 0, 0, nil
			}
			nn := s.at(id)
			for _, k := range nn.kids[t] {
				if k != 0 && s.at(k).prio > nn.prio {
					return 0, 0, fmt.Errorf("alloc: index %d heap order broken at %v", t, nn.b)
				}
			}
			nl, ml, err := walk(nn.kids[t][0])
			if err != nil {
				return 0, 0, err
			}
			if nn.b == nil || nn.b.list != l || prev != nil && !less(t, prev, nn) {
				return 0, 0, fmt.Errorf("alloc: index %d order broken at %v", t, nn.b)
			}
			prev = nn
			nr, mr, err := walk(nn.kids[t][1])
			if err != nil {
				return 0, 0, err
			}
			m := max(nn.size, ml, mr)
			if t == orderIdx && (nn.below != 1+nl+nr || nn.max != m) {
				return 0, 0, fmt.Errorf("alloc: order index counts %d blocks up to size %d at %v, subtree holds %d up to %d",
					nn.below, nn.max, nn.b, 1+nl+nr, m)
			}
			return 1 + nl + nr, m, nil
		}
		total, _, err := walk(x.root[t])
		if err != nil {
			return err
		}
		if int(total) != n {
			return fmt.Errorf("alloc: index %d holds %d blocks, list %d", t, total, n)
		}
	}
	return nil
}
