package trace

import (
	"fmt"
	"math"
)

// Op is one compiled trace operation. Compared to Event, allocation IDs
// are renumbered into the dense [0..NumIDs) range so replay state fits in
// flat tables instead of maps, and Free carries the size being released
// (resolved at compile time) so the replayer never tracks request sizes.
//
// Op is the row-oriented view over Compiled's columnar slabs, assembled
// on demand by At; hot loops iterate the slabs directly (Slabs).
type Op struct {
	Kind EventKind
	ID   uint32 // dense allocation index (Alloc/Free/Access)
	Size int64  // Alloc: requested bytes; Free: bytes being released

	Reads  uint64 // Access
	Writes uint64 // Access
	Cycles uint64 // Tick
}

// Compiled is a trace preprocessed for replay: validated, densely
// renumbered and annotated with the counts a replayer needs to pre-size
// every buffer. One Compiled trace is built per exploration and shared
// read-only by all workers.
//
// Events are stored structure-of-arrays, 13 bytes per event: a 1-byte
// kind column, a 4-byte dense-ID column and one 8-byte argument column,
// so the replay loop streams the kinds and touches only the words the
// kind uses. Block-framed v2 files decode straight into the slabs
// (CompileBinaryParallel) without materializing an []Event copy.
type Compiled struct {
	Name string

	// kinds discriminates each event; ids holds the dense allocation
	// index (Alloc/Free/Access); args holds the kind's argument — Alloc
	// and Free: size bytes; Access: reads and writes packed by
	// packAccess; Tick: cycles. All three slabs have equal length.
	kinds []EventKind
	ids   []uint32
	args  []uint64

	// NumIDs is the dense allocation-ID space: every dense ID is < NumIDs.
	NumIDs int

	// Per-kind event counts, for buffer pre-sizing.
	Allocs   int
	Frees    int
	Accesses int
	Ticks    int

	// PeakLive is the maximum number of simultaneously live allocations.
	PeakLive int

	// PeakRequestedBytes is the workload's peak live demand — a pure
	// function of the trace, so it is computed once here instead of per
	// replay.
	PeakRequestedBytes int64
}

// Len returns the number of compiled operations (identical to the source
// trace's event count; At(i) corresponds to Events[i]).
func (c *Compiled) Len() int { return len(c.kinds) }

// Slabs exposes the columnar event slabs for branch-light replay loops.
// All three slices have length Len() and are shared read-only; callers
// must not mutate them. An Access argument unpacks with AccessArgs.
func (c *Compiled) Slabs() (kinds []EventKind, ids []uint32, args []uint64) {
	return c.kinds, c.ids, c.args
}

// packAccess packs an Access event's word reads (high half) and writes
// (low half) into one argument word.
func packAccess(reads, writes uint32) uint64 {
	return uint64(reads)<<32 | uint64(writes)
}

// AccessArgs unpacks a KindAccess slab argument into its word reads and
// writes.
func AccessArgs(arg uint64) (reads, writes uint64) {
	return arg >> 32, arg & math.MaxUint32
}

// At reconstructs operation i as a row-oriented Op. It is the
// compatibility view for cold paths and tests; replay loops iterate the
// slabs from Slabs directly.
func (c *Compiled) At(i int) Op {
	op := Op{Kind: c.kinds[i], ID: c.ids[i]}
	switch op.Kind {
	case KindAlloc, KindFree:
		op.Size = int64(c.args[i])
	case KindAccess:
		op.Reads, op.Writes = AccessArgs(c.args[i])
	case KindTick:
		op.Cycles = c.args[i]
	}
	return op
}

// newCompiled allocates the slabs for n events plus the temporary
// raw-ID slab finalize consumes.
func newCompiled(name string, n int) (*Compiled, []uint64) {
	c := &Compiled{
		Name:  name,
		kinds: make([]EventKind, n),
		ids:   make([]uint32, n),
		args:  make([]uint64, n),
	}
	return c, make([]uint64, n)
}

// Compile validates t and builds its compiled representation. The
// returned Compiled is immutable and safe for concurrent replay.
func Compile(t *Trace) (*Compiled, error) {
	c, rawIDs := newCompiled(t.Name, len(t.Events))
	for i := range t.Events {
		c.setEvent(i, &t.Events[i], rawIDs)
	}
	if err := c.finalize(rawIDs); err != nil {
		return nil, err
	}
	return c, nil
}

// setEvent stores event e into the slabs at index i, its raw ID into
// rawIDs. KindFree carries no argument here (finalize resolves the
// size); unknown kinds are rejected by finalize.
func (c *Compiled) setEvent(i int, e *Event, rawIDs []uint64) {
	c.kinds[i] = e.Kind
	rawIDs[i] = e.ID
	switch e.Kind {
	case KindAlloc:
		c.args[i] = uint64(e.Size)
	case KindAccess:
		c.args[i] = packAccess(e.Reads, e.Writes)
	case KindTick:
		c.args[i] = uint64(e.Cycles)
	}
}

// finalize turns raw slabs (kinds/args filled, rawIDs holding the
// original allocation IDs) into the compiled form: it validates the
// event stream, renumbers IDs densely into c.ids, resolves Free sizes
// into args and computes the replay counts. Shared by Compile and the
// direct block-parallel path so both produce identical results and
// identical error messages.
func (c *Compiled) finalize(rawIDs []uint64) error {
	// dense maps original IDs to dense indices; size holds the requested
	// bytes of the live allocation so Free ops can carry it.
	dense := make(map[uint64]uint32, 64)
	size := make([]int64, 0, 64)
	live := make([]bool, 0, 64)
	var liveCount, liveBytes int64
	for i, kind := range c.kinds {
		switch kind {
		case KindAlloc:
			sz := int64(c.args[i])
			if sz <= 0 {
				return fmt.Errorf("trace %s: event %d: alloc %d with size %d", c.Name, i, rawIDs[i], sz)
			}
			if idx, seen := dense[rawIDs[i]]; seen {
				if live[idx] {
					return fmt.Errorf("trace %s: event %d: id %d allocated twice", c.Name, i, rawIDs[i])
				}
				return fmt.Errorf("trace %s: event %d: id %d reused after free", c.Name, i, rawIDs[i])
			}
			idx := uint32(len(size))
			dense[rawIDs[i]] = idx
			size = append(size, sz)
			live = append(live, true)
			c.ids[i] = idx
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
			idx, seen := dense[rawIDs[i]]
			if !seen || !live[idx] {
				return fmt.Errorf("trace %s: event %d: free of dead id %d", c.Name, i, rawIDs[i])
			}
			live[idx] = false
			c.ids[i] = idx
			c.args[i] = uint64(size[idx])
			c.Frees++
			liveCount--
			liveBytes -= size[idx]
		case KindAccess:
			idx, seen := dense[rawIDs[i]]
			if !seen || !live[idx] {
				return fmt.Errorf("trace %s: event %d: access to dead id %d", c.Name, i, rawIDs[i])
			}
			if c.args[i] == 0 {
				return fmt.Errorf("trace %s: event %d: empty access", c.Name, i)
			}
			c.ids[i] = idx
			c.Accesses++
		case KindTick:
			if c.args[i] == 0 {
				return fmt.Errorf("trace %s: event %d: zero tick", c.Name, i)
			}
			c.Ticks++
		default:
			return fmt.Errorf("trace %s: event %d: unknown kind %d", c.Name, i, kind)
		}
	}
	c.NumIDs = len(size)
	return nil
}
