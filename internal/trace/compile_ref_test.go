package trace

import (
	"fmt"
	"reflect"
	"testing"
)

// referenceCompile is Compile with a Go map from raw to dense IDs in
// place of the ID table: the same checks, error messages and slab
// writes, one map lookup an event. FuzzCompile and the relabelling test
// hold Compile to it.
func referenceCompile(t *Trace) (*Compiled, error) {
	c := &Compiled{
		Name: t.Name,
		args: make([]uint32, len(t.Events)),
		ids:  IDs{lo: make([]uint16, len(t.Events))},
	}
	dense := make(map[uint64]uint32)
	var size []int64
	var live []bool
	var liveCount, liveBytes int64
	for i, e := range t.Events {
		kind, id, arg := e.Kind(), e.ID(), e.arg
		switch kind {
		case KindAlloc:
			sz := int64(arg)
			if sz <= 0 {
				return nil, fmt.Errorf("trace %s: event %d: alloc %d with size %d", c.Name, i, id, sz)
			}
			if idx, seen := dense[id]; seen {
				if live[idx] {
					return nil, fmt.Errorf("trace %s: event %d: id %d allocated twice", c.Name, i, id)
				}
				return nil, fmt.Errorf("trace %s: event %d: id %d reused after free", c.Name, i, id)
			}
			idx := uint32(len(size))
			dense[id] = idx
			size = append(size, sz)
			live = append(live, true)
			c.ids.set(i, idx)
			c.Allocs++
			liveCount++
			if int(liveCount) > c.PeakLive {
				c.PeakLive = int(liveCount)
			}
			liveBytes += sz
			if liveBytes > c.PeakRequestedBytes {
				c.PeakRequestedBytes = liveBytes
			}
		case KindFree:
			idx, seen := dense[id]
			if !seen || !live[idx] {
				return nil, fmt.Errorf("trace %s: event %d: free of dead id %d", c.Name, i, id)
			}
			live[idx] = false
			c.ids.set(i, idx)
			arg = uint64(size[idx])
			c.Frees++
			liveCount--
			liveBytes -= size[idx]
		case KindAccess:
			idx, seen := dense[id]
			if !seen || !live[idx] {
				return nil, fmt.Errorf("trace %s: event %d: access to dead id %d", c.Name, i, id)
			}
			if arg == 0 {
				return nil, fmt.Errorf("trace %s: event %d: empty access", c.Name, i)
			}
			c.ids.set(i, idx)
			c.Accesses++
		case KindTick:
			if arg == 0 {
				return nil, fmt.Errorf("trace %s: event %d: zero tick", c.Name, i)
			}
			c.Ticks++
		default:
			return nil, fmt.Errorf("trace %s: event %d: unknown kind %d", c.Name, i, kind)
		}
		c.setArg(i, kind, arg)
	}
	c.NumIDs = len(size)
	return c, nil
}

// MeanProbes returns the mean number of slots a lookup of each of
// events' allocation IDs visits in the ID table Compile builds for
// them, and whether that table hashes the IDs.
func MeanProbes(events []Event) (float64, bool) {
	tab, n := newIDTable(events)
	for _, e := range events {
		if e.Kind() == KindAlloc {
			tab.add(e.ID())
		}
	}
	if n == 0 {
		return 0, tab.hash
	}
	probes := 0
	for s, v := range tab.slots {
		if v != 0 {
			probes += int((uint64(s)-tab.home(tab.raw[v-1]))&tab.mask) + 1
		}
	}
	return float64(probes) / float64(len(tab.raw)), tab.hash
}

// fuzzID returns the k-th raw ID of ID family f: dense (k+1), sparse
// (k<<40 | salt), counting down from MaxID, multiples of 2^32 (equal
// below bit 32, so they share an offset slot in any table smaller than
// 2^32), and k itself (ID 0 included).
func fuzzID(f, k byte) uint64 {
	switch f % 5 {
	case 0:
		return uint64(k) + 1
	case 1:
		return uint64(k)<<40 | 0x5a5a5
	case 2:
		return MaxID - uint64(k)
	case 3:
		return uint64(k) << 32
	}
	return uint64(k)
}

// fuzzTrace decodes data, three bytes an event, into a trace. Byte 0's
// low three bits pick the kind — alloc (0, 1, 6, 7), free (2), access
// (3), tick (4) or the invalid zero Event (5) — and its high bits the ID
// family. A free or access with byte 1 below 128 targets an earlier
// allocation's ID, live or not; otherwise, like an alloc, it names ID
// fuzzID(family, byte 1). Byte 2 is the argument: alloc bytes (255:
// 2^40, past the narrow argument column), access reads and writes
// (high and low nibble, 0 for an empty access) and tick cycles.
func fuzzTrace(data []byte) *Trace {
	t := &Trace{Name: "fuzz"}
	var allocated []uint64
	for ; len(data) >= 3; data = data[3:] {
		kind, f, k, arg := data[0]&7, data[0]>>3, data[1], data[2]
		id := fuzzID(f, k)
		if kind == 2 || kind == 3 {
			if k < 128 && len(allocated) > 0 {
				id = allocated[int(k)%len(allocated)]
			}
		}
		switch kind {
		case 2:
			t.Events = append(t.Events, FreeEvent(id))
		case 3:
			t.Events = append(t.Events, AccessEvent(id, uint32(arg>>4), uint32(arg&15)))
		case 4:
			t.Events = append(t.Events, TickEvent(uint32(arg)))
		case 5:
			t.Events = append(t.Events, Event{})
		default:
			size := int64(arg)
			if arg == 255 {
				size = 1 << 40
			}
			t.Events = append(t.Events, AllocEvent(id, size))
			allocated = append(allocated, id)
		}
	}
	return t
}

// fuzzSeed encodes events for fuzzTrace: kind, family, k, argument.
func fuzzSeed(events ...[4]byte) []byte {
	var data []byte
	for _, e := range events {
		data = append(data, e[0]|e[1]<<3, e[2], e[3])
	}
	return data
}

// FuzzCompile holds Compile to referenceCompile on event streams over
// every ID family: the same slabs and counts, or the same error, which
// Validate must also return.
func FuzzCompile(f *testing.F) {
	for fam := byte(0); fam < 5; fam++ {
		// Valid: three allocations, accesses, a tick, a wide size and
		// frees of earlier allocations by position.
		f.Add(fuzzSeed(
			[4]byte{0, fam, 1, 16}, [4]byte{0, fam, 2, 32}, [4]byte{3, fam, 0, 0x21},
			[4]byte{4, fam, 0, 9}, [4]byte{0, fam, 200, 255}, [4]byte{2, fam, 1, 0},
			[4]byte{3, fam, 2, 0x10}, [4]byte{2, fam, 0, 0}, [4]byte{2, fam, 2, 0}))
		// Reused after free, then allocated twice.
		f.Add(fuzzSeed([4]byte{0, fam, 7, 8}, [4]byte{2, fam, 0, 0}, [4]byte{0, fam, 7, 8}))
		f.Add(fuzzSeed([4]byte{0, fam, 7, 8}, [4]byte{0, fam, 7, 8}))
		// Freed twice; a free and an access of an ID never allocated.
		f.Add(fuzzSeed([4]byte{0, fam, 3, 8}, [4]byte{2, fam, 0, 0}, [4]byte{2, fam, 0, 0}))
		f.Add(fuzzSeed([4]byte{0, fam, 3, 8}, [4]byte{2, fam, 200, 0}))
		f.Add(fuzzSeed([4]byte{0, fam, 3, 8}, [4]byte{3, fam, 201, 0x11}))
	}
	// Mixed families in one trace (hashed slots), an ID just past the
	// offset range, an empty access, a zero tick, a zero size and an
	// unknown kind.
	f.Add(fuzzSeed([4]byte{0, 0, 1, 8}, [4]byte{0, 1, 1, 8}, [4]byte{0, 2, 1, 8}, [4]byte{0, 3, 1, 8},
		[4]byte{3, 2, 0, 0x01}, [4]byte{2, 1, 1, 0}, [4]byte{2, 3, 3, 0}))
	f.Add(fuzzSeed([4]byte{0, 0, 1, 8}, [4]byte{0, 0, 2, 8}, [4]byte{2, 0, 130, 0}))
	f.Add(fuzzSeed([4]byte{0, 0, 1, 8}, [4]byte{3, 0, 0, 0}))
	f.Add(fuzzSeed([4]byte{4, 0, 0, 0}))
	f.Add(fuzzSeed([4]byte{0, 0, 1, 0}))
	f.Add(fuzzSeed([4]byte{0, 0, 1, 8}, [4]byte{5, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTrace(data)
		got, err := Compile(tr)
		want, wantErr := referenceCompile(tr)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Compile error %v, reference %v", err, wantErr)
		}
		if verr := tr.Validate(); fmt.Sprint(verr) != fmt.Sprint(wantErr) {
			t.Fatalf("Validate error %v, reference %v", verr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compiled trace differs from the reference:\n got %+v\nwant %+v", got, want)
		}
	})
}
