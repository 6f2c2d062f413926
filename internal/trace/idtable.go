package trace

import (
	"math/bits"
	"math/rand/v2"
)

// idTable numbers raw allocation IDs densely in the order they are
// added: the first ID gets 0, the next new one 1, and so on. It is the
// package's one ID lookup, behind Compile, Validate, Analyze and Slice.
//
// The table is open-addressed with linear probing, its size a power of
// two at least twice the number of IDs it will hold. The slot function
// is chosen once, from the range of the IDs to come. When that range
// fits the table, as the IDs 1..n of every generated and Builder trace
// do, an ID's home slot is its offset from the smallest ID: no two IDs
// share one, so a lookup takes one probe. Otherwise a seeded mixing
// hash spreads the IDs, so that sparse IDs, and IDs chosen to collide
// without knowing the seed, cost an expected constant number of probes.
type idTable struct {
	slots []uint32 // slot -> dense index + 1; 0 marks an empty slot
	raw   []uint64 // dense index -> raw ID
	mask  uint64
	base  uint64 // offset slots: the smallest ID
	seed  uint64 // hashed slots: the hash seed
	shift uint   // hashed slots: 64 - log2(len(slots))
	hash  bool   // hashed slots, not offset slots
}

// newIDTable returns an empty table sized for the IDs of events' Alloc
// events, and the number of those events.
func newIDTable(events []Event) (*idTable, int) {
	n, lo, hi := 0, uint64(MaxID), uint64(0)
	for i := range events {
		if events[i].Kind() == KindAlloc {
			id := events[i].ID()
			n++
			lo, hi = min(lo, id), max(hi, id)
		}
	}
	logSize := bits.Len64(uint64(max(2*n-1, 0)))
	t := &idTable{
		slots: make([]uint32, 1<<logSize),
		raw:   make([]uint64, 0, n),
		mask:  1<<logSize - 1,
		base:  lo,
	}
	if n == 0 || hi-lo > t.mask {
		t.hash, t.seed, t.shift = true, rand.Uint64(), uint(64-logSize)
	}
	return t, n
}

// home returns the slot id's probe starts from.
func (t *idTable) home(id uint64) uint64 {
	if t.hash {
		return mix(id^t.seed) >> t.shift
	}
	return (id - t.base) & t.mask
}

// slot returns the slot holding id, or the empty slot where it belongs.
func (t *idTable) slot(id uint64) uint64 {
	s := t.home(id)
	for t.slots[s] != 0 && t.raw[t.slots[s]-1] != id {
		s = (s + 1) & t.mask
	}
	return s
}

// add returns id's dense index, numbering id first when it is new
// (fresh). The table must not be given more distinct IDs than it was
// sized for.
func (t *idTable) add(id uint64) (idx uint32, fresh bool) {
	s := t.slot(id)
	if t.slots[s] != 0 {
		return t.slots[s] - 1, false
	}
	t.raw = append(t.raw, id)
	t.slots[s] = uint32(len(t.raw))
	return t.slots[s] - 1, true
}

// lookup returns id's dense index, if id was added.
func (t *idTable) lookup(id uint64) (idx uint32, ok bool) {
	s := t.slot(id)
	return t.slots[s] - 1, t.slots[s] != 0
}

// mix is SplitMix64's finalizer: every input bit reaches every output
// bit, so the top bits slot reads are well spread.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
