package alloc

import (
	"fmt"
	"slices"

	"dmexplore/internal/simheap"
)

// listIndex holds a free list's host-side indexes. Under the flat cost
// model the charge of a best/worst-fit scan or an address-ordered insert
// walk depends only on counts, which the indexes answer in O(log n);
// FreeList then charges exactly what the walk would have. The indexes
// themselves charge nothing.
//
// Both are treaps over nodes in a slab the lists of a pool share, so a
// Block carries only its node's id. The size index orders nodes by
// (size, list-order key), so the first node of a size is the first block
// of that size in list order. The address index orders them by address —
// the key of an address-ordered list — and counts subtrees, giving the
// rank of an address.
type listIndex struct {
	slab       *nodeSlab
	size, addr bool // which indexes the list keeps
	built      bool // the indexes hold every listed block
	root       [2]int32
}

// The two indexes, as subscripts of listIndex.root and indexNode.kids.
const (
	sizeIdx = 0
	addrIdx = 1
)

// indexNode is one listed block's entry in its list's indexes. It copies
// the block's size and list-order key, which never change while the
// block is listed.
type indexNode struct {
	b     *Block
	size  int64
	key   uint64
	kids  [2][2]int32 // [index][left, right] node ids, 0 for none
	below int32       // nodes in the address-index subtree
	prio  uint32
}

// nodeSlab holds index nodes; id 0 is never used, so 0 means none.
type nodeSlab struct {
	nodes []indexNode
	free  []int32
}

// alloc enters b in the slab and returns its node's id.
func (s *nodeSlab) alloc(b *Block) int32 {
	if len(s.nodes) == 0 {
		s.nodes = append(s.nodes, indexNode{})
	}
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		// Double when full: a list's index grows from tens to thousands
		// of nodes, and append's gentler growth would leave several
		// slabs' worth of garbage behind.
		id = int32(len(s.nodes))
		if len(s.nodes) == cap(s.nodes) {
			s.nodes = slices.Grow(s.nodes, len(s.nodes))
		}
		s.nodes = append(s.nodes, indexNode{})
	}
	s.nodes[id] = indexNode{b: b, size: b.size, key: b.key, below: 1, prio: prio(b.addr)}
	b.node = id
	return id
}

func (s *nodeSlab) release(b *Block) {
	s.nodes[b.node].b = nil
	s.free = append(s.free, b.node)
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

// ready reports whether the indexes may answer a walk on ctx now.
func (x *listIndex) ready(ctx *simheap.Context) bool {
	return x != nil && x.built && ctx.Flat()
}

// pushed enters b, just pushed onto l: into built indexes, or by
// building them once l reaches indexFrom blocks.
func (x *listIndex) pushed(l *FreeList, b *Block) {
	switch {
	case x.built:
		x.add(b)
	case l.count == indexFrom && l.ctx.Flat():
		for c := l.head; c != nil; c = c.flNext {
			x.add(c)
		}
		x.built = true
	}
}

// unlinked drops b, just unlinked from l, and drops the indexes
// altogether once l falls below indexDrop blocks.
func (x *listIndex) unlinked(l *FreeList, b *Block) {
	if !x.built {
		return
	}
	if l.count >= indexDrop {
		for t := range x.root {
			if x.keeps(t) {
				x.remove(t, b.node)
			}
		}
		x.slab.release(b)
		return
	}
	x.slab.release(b)
	for c := l.head; c != nil; c = c.flNext {
		x.slab.release(c)
	}
	x.root, x.built = [2]int32{}, false
}

func (x *listIndex) keeps(t int) bool {
	if t == sizeIdx {
		return x.size
	}
	return x.addr
}

func (x *listIndex) add(b *Block) {
	id := x.slab.alloc(b)
	for t := range x.root {
		if x.keeps(t) {
			x.insert(t, id)
		}
	}
}

func less(t int, a, b *indexNode) bool {
	if t == addrIdx {
		return a.key < b.key
	}
	return a.size < b.size || a.size == b.size && a.key < b.key
}

// recount refreshes n's address-subtree count after its children moved.
func (x *listIndex) recount(t int, n *indexNode) {
	if t == addrIdx {
		nodes := x.slab.nodes
		n.below = 1 + nodes[n.kids[t][0]].below + nodes[n.kids[t][1]].below
	}
}

func (x *listIndex) insert(t int, id int32) {
	nodes := x.slab.nodes
	b := &nodes[id]
	link := &x.root[t]
	for n := *link; n != 0 && nodes[n].prio > b.prio; n = *link {
		nn := &nodes[n]
		if t == addrIdx {
			nn.below++
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
func (x *listIndex) split(t int, n int32, b *indexNode) (lo, hi int32) {
	if n == 0 {
		return 0, 0
	}
	nn := &x.slab.nodes[n]
	if less(t, nn, b) {
		lo = n
		nn.kids[t][1], hi = x.split(t, nn.kids[t][1], b)
	} else {
		hi = n
		lo, nn.kids[t][0] = x.split(t, nn.kids[t][0], b)
	}
	x.recount(t, nn)
	return lo, hi
}

func (x *listIndex) remove(t int, id int32) {
	nodes := x.slab.nodes
	b := &nodes[id]
	link := &x.root[t]
	for n := *link; n != id; n = *link {
		nn := &nodes[n]
		if t == addrIdx {
			nn.below--
		}
		if less(t, b, nn) {
			link = &nn.kids[t][0]
		} else {
			link = &nn.kids[t][1]
		}
	}
	*link = x.merge(t, b.kids[t][0], b.kids[t][1])
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
	na, nb := &x.slab.nodes[a], &x.slab.nodes[b]
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
	nodes := x.slab.nodes
	var found int32
	for n := x.root[sizeIdx]; n != 0; {
		if nodes[n].size >= need {
			found = n
			n = nodes[n].kids[sizeIdx][0]
		} else {
			n = nodes[n].kids[sizeIdx][1]
		}
	}
	return nodes[found].b
}

// worstFit returns the first block of the largest size in list order,
// or nil when that size is below need.
func (x *listIndex) worstFit(need int64) *Block {
	nodes := x.slab.nodes
	n := x.root[sizeIdx]
	for n != 0 && nodes[n].kids[sizeIdx][1] != 0 {
		n = nodes[n].kids[sizeIdx][1]
	}
	if n == 0 || nodes[n].size < need {
		return nil
	}
	return x.bestFit(nodes[n].size)
}

// neighbours returns the number of listed blocks below addr and the
// closest listed block on either side of it.
func (x *listIndex) neighbours(addr uint64) (below uint64, prev, next *Block) {
	nodes := x.slab.nodes
	for n := x.root[addrIdx]; n != 0; {
		nn := &nodes[n]
		if nn.key < addr {
			below += uint64(nodes[nn.kids[addrIdx][0]].below) + 1
			prev = nn.b
			n = nn.kids[addrIdx][1]
		} else {
			next = nn.b
			n = nn.kids[addrIdx][0]
		}
	}
	return below, prev, next
}

// check verifies the indexes against l's n blocks: every listed block
// has a node holding its current size and key, found where its index
// expects it, and each tree's order, heap and subtree counts hold.
func (x *listIndex) check(l *FreeList, n int) error {
	if !x.built {
		return nil
	}
	nodes := x.slab.nodes
	for b := l.head; b != nil; b = b.flNext {
		if b.node <= 0 || int(b.node) >= len(nodes) || nodes[b.node].b != b {
			return fmt.Errorf("alloc: listed %v has no index node", b)
		}
		if nb := &nodes[b.node]; nb.size != b.size || nb.key != b.key {
			return fmt.Errorf("alloc: %v indexed as size %d key %d, listed with key %d", b, nb.size, nb.key, b.key)
		}
		for t := range x.root {
			cur := x.root[t]
			for x.keeps(t) && cur != 0 && cur != b.node {
				if less(t, &nodes[b.node], &nodes[cur]) {
					cur = nodes[cur].kids[t][0]
				} else {
					cur = nodes[cur].kids[t][1]
				}
			}
			if x.keeps(t) && cur == 0 {
				return fmt.Errorf("alloc: %v is not where index %d expects it", b, t)
			}
		}
	}
	for t := range x.root {
		if !x.keeps(t) {
			continue
		}
		var prev *indexNode
		var walk func(id int32) (int32, error)
		walk = func(id int32) (int32, error) {
			if id == 0 {
				return 0, nil
			}
			nn := &nodes[id]
			for _, k := range nn.kids[t] {
				if k != 0 && nodes[k].prio > nn.prio {
					return 0, fmt.Errorf("alloc: index %d heap order broken at %v", t, nn.b)
				}
			}
			nl, err := walk(nn.kids[t][0])
			if err != nil {
				return 0, err
			}
			if nn.b == nil || nn.b.list != l || prev != nil && !less(t, prev, nn) {
				return 0, fmt.Errorf("alloc: index %d order broken at %v", t, nn.b)
			}
			prev = nn
			nr, err := walk(nn.kids[t][1])
			if err != nil {
				return 0, err
			}
			if t == addrIdx && nn.below != 1+nl+nr {
				return 0, fmt.Errorf("alloc: address index counts %d at %v, subtree holds %d", nn.below, nn.b, 1+nl+nr)
			}
			return 1 + nl + nr, nil
		}
		total, err := walk(x.root[t])
		if err != nil {
			return err
		}
		if int(total) != n {
			return fmt.Errorf("alloc: index %d holds %d blocks, list %d", t, total, n)
		}
	}
	return nil
}
