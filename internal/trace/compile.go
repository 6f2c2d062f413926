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
// Events are stored structure-of-arrays, 6 bytes per event: a 4-byte
// argument column that also carries the kind, and a dense-ID column of 2
// bytes an event while the trace has at most 65,536 allocations (IDs),
// so the replay loop streams the arguments and touches an ID only when
// the kind has one.
type Compiled struct {
	Name string

	// args holds each event's kind (ArgKind) and argument — Alloc and
	// Free: size bytes; Access: word reads and writes, 13 and 16 bits;
	// Tick: cycles — or, for an argument too wide for that, wideFlag|i
	// with the value (Access: packAccess) in wide[i]. ids holds the dense
	// allocation index (Alloc/Free/Access). Both have Len() events.
	args []uint32
	ids  IDs
	wide []uint64

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
func (c *Compiled) Len() int { return len(c.args) }

// Slabs exposes the columnar event slabs for branch-light replay loops.
// Both slices have length Len() and are shared read-only; callers must
// not mutate them. An argument's kind reads with ArgKind, its value with
// Arg, an Access argument's with AccessArgs.
func (c *Compiled) Slabs() (args []uint32, ids IDs) {
	return c.args, c.ids
}

// IDs is the dense-ID column: the low 16 bits of each event's ID, and
// the high 16 bits only once an ID needs them.
type IDs struct {
	lo, hi []uint16
}

// At returns event i's dense allocation ID.
func (d IDs) At(i int) uint32 {
	id := uint32(d.lo[i])
	if d.hi != nil {
		id |= uint32(d.hi[i]) << 16
	}
	return id
}

func (d *IDs) set(i int, id uint32) {
	d.lo[i] = uint16(id)
	if id > math.MaxUint16 && d.hi == nil {
		d.hi = make([]uint16, len(d.lo))
	}
	if d.hi != nil {
		d.hi[i] = uint16(id >> 16)
	}
}

// An args entry is kind-1 in its top two bits, then wideFlag, then the
// argument or its index in the wide column.
const (
	kindShift = 30
	wideFlag  = 1 << 29
	argMask   = wideFlag - 1
)

// ArgKind returns the kind of the event whose slab argument is a.
func ArgKind(a uint32) EventKind { return EventKind(a>>kindShift) + KindAlloc }

// packAccess packs an Access event's word reads (high half) and writes
// (low half) into one argument word.
func packAccess(reads, writes uint32) uint64 {
	return uint64(reads)<<32 | uint64(writes)
}

// Arg returns an Alloc, Free or Tick slab argument: size bytes or cycles.
func (c *Compiled) Arg(a uint32) uint64 {
	if a&wideFlag != 0 {
		return c.wide[a&argMask]
	}
	return uint64(a & argMask)
}

// AccessArgs unpacks a KindAccess slab argument into its word reads and
// writes.
func (c *Compiled) AccessArgs(a uint32) (reads, writes uint64) {
	if a&wideFlag != 0 {
		v := c.wide[a&argMask]
		return v >> 32, v & math.MaxUint32
	}
	return uint64(a & argMask >> 16), uint64(a & 0xffff)
}

// setArg stores event i's kind and full argument v, narrow when it fits.
func (c *Compiled) setArg(i int, kind EventKind, v uint64) {
	k := uint32(kind-KindAlloc) << kindShift
	if kind == KindAccess {
		if reads, writes := v>>32, v&math.MaxUint32; reads < 1<<13 && writes < 1<<16 {
			c.args[i] = k | uint32(reads<<16|writes)
			return
		}
	} else if v < wideFlag {
		c.args[i] = k | uint32(v)
		return
	}
	c.args[i] = k | wideFlag | uint32(len(c.wide))
	c.wide = append(c.wide, v)
}

// At reconstructs operation i as a row-oriented Op. It is the
// compatibility view for cold paths and tests; replay loops iterate the
// slabs from Slabs directly.
func (c *Compiled) At(i int) Op {
	op := Op{Kind: ArgKind(c.args[i]), ID: c.ids.At(i)}
	switch op.Kind {
	case KindAlloc, KindFree:
		op.Size = int64(c.Arg(c.args[i]))
	case KindAccess:
		op.Reads, op.Writes = c.AccessArgs(c.args[i])
	case KindTick:
		op.Cycles = c.Arg(c.args[i])
	}
	return op
}

// Compile validates t and builds its compiled representation. The
// returned Compiled is immutable and safe for concurrent replay.
func Compile(t *Trace) (*Compiled, error) {
	c := &Compiled{
		Name: t.Name,
		args: make([]uint32, len(t.Events)),
		ids:  IDs{lo: make([]uint16, len(t.Events))},
	}
	if err := scan(t.Name, t.Events, c); err != nil {
		return nil, err
	}
	return c, nil
}

// scan is the one checking pass behind Validate and Compile: it walks
// events in order, rejects the first invalid one and numbers allocation
// IDs densely in first-alloc order. With c non-nil it also writes each
// event into c's slabs, a Free with the size it releases, and sets c's
// counts; Validate passes nil and builds no slabs.
func scan(name string, events []Event, c *Compiled) error {
	dense, allocs := newIDTable(events)
	// size and live hold each dense ID's requested bytes and whether it
	// is still allocated.
	size := make([]int64, 0, allocs)
	live := make([]bool, 0, allocs)
	var frees, accesses, ticks, liveCount, peakLive int
	var liveBytes, peakBytes int64
	for i := range events {
		kind, id, arg := events[i].Kind(), events[i].ID(), events[i].arg
		var idx uint32
		switch kind {
		case KindAlloc:
			sz := int64(arg)
			if sz <= 0 {
				return fmt.Errorf("trace %s: event %d: alloc %d with size %d", name, i, id, sz)
			}
			var fresh bool
			if idx, fresh = dense.add(id); !fresh {
				if live[idx] {
					return fmt.Errorf("trace %s: event %d: id %d allocated twice", name, i, id)
				}
				return fmt.Errorf("trace %s: event %d: id %d reused after free", name, i, id)
			}
			size = append(size, sz)
			live = append(live, true)
			liveCount++
			peakLive = max(peakLive, liveCount)
			liveBytes += sz
			peakBytes = max(peakBytes, liveBytes)
		case KindFree:
			var ok bool
			if idx, ok = dense.lookup(id); !ok || !live[idx] {
				return fmt.Errorf("trace %s: event %d: free of dead id %d", name, i, id)
			}
			live[idx] = false
			arg = uint64(size[idx])
			frees++
			liveCount--
			liveBytes -= size[idx]
		case KindAccess:
			var ok bool
			if idx, ok = dense.lookup(id); !ok || !live[idx] {
				return fmt.Errorf("trace %s: event %d: access to dead id %d", name, i, id)
			}
			if arg == 0 {
				return fmt.Errorf("trace %s: event %d: empty access", name, i)
			}
			accesses++
		case KindTick:
			if arg == 0 {
				return fmt.Errorf("trace %s: event %d: zero tick", name, i)
			}
			ticks++
		default:
			return fmt.Errorf("trace %s: event %d: unknown kind %d", name, i, kind)
		}
		if c != nil {
			c.ids.set(i, idx)
			c.setArg(i, kind, arg)
		}
	}
	if c != nil {
		c.NumIDs, c.Allocs, c.Frees, c.Accesses, c.Ticks = len(size), len(size), frees, accesses, ticks
		c.PeakLive, c.PeakRequestedBytes = peakLive, peakBytes
	}
	return nil
}
