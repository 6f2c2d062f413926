// Package trace defines the allocation-trace representation shared by the
// workload generators, the profiler and the CLI tools: the sequence of
// dynamic-memory events (allocations, frees, application accesses to
// allocated data and CPU compute ticks) one application run produces.
//
// Traces are the contract that makes the exploration fair: every allocator
// configuration is profiled against the byte-identical event sequence.
package trace

import (
	"fmt"
	"math"
	"sort"
)

// EventKind discriminates trace events.
type EventKind uint8

// Event kinds.
const (
	// KindAlloc requests Size bytes for allocation ID.
	KindAlloc EventKind = iota + 1
	// KindFree releases allocation ID.
	KindFree
	// KindAccess performs Reads word-reads and Writes word-writes on the
	// data of live allocation ID (charged to the layer holding it).
	KindAccess
	// KindTick advances the CPU by Cycles compute cycles (non-memory
	// application work: protocol processing, IDCT arithmetic, ...).
	KindTick
)

func (k EventKind) String() string {
	switch k {
	case KindAlloc:
		return "alloc"
	case KindFree:
		return "free"
	case KindAccess:
		return "access"
	case KindTick:
		return "tick"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one trace record. Field use depends on Kind; unused fields are
// zero. Access reads and writes and Tick cycles are 32-bit, which keeps
// an Event at 32 bytes; the decoders reject larger values and Builder
// panics on them, so nothing is ever truncated.
type Event struct {
	Kind   EventKind
	Cycles uint32 // CPU cycles (Tick)
	ID     uint64 // allocation id (Alloc/Free/Access)
	Size   int64  // requested bytes (Alloc)
	Reads  uint32 // application word reads (Access)
	Writes uint32 // application word writes (Access)
}

// checkArg rejects an Access or Tick argument that does not fit its
// 32-bit Event field; what names the argument in the error.
func checkArg(what string, v uint64) error {
	if v > math.MaxUint32 {
		return fmt.Errorf("%s %d exceeds the 32-bit limit", what, v)
	}
	return nil
}

// Trace is an ordered event sequence with an identifying name.
type Trace struct {
	Name   string
	Events []Event
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Validate checks the trace's referential integrity: IDs allocate before
// they free or access, no double-alloc or double-free, positive sizes.
func (t *Trace) Validate() error {
	live := make(map[uint64]bool)
	freed := make(map[uint64]bool)
	for i, e := range t.Events {
		switch e.Kind {
		case KindAlloc:
			if e.Size <= 0 {
				return fmt.Errorf("trace %s: event %d: alloc %d with size %d", t.Name, i, e.ID, e.Size)
			}
			if live[e.ID] {
				return fmt.Errorf("trace %s: event %d: id %d allocated twice", t.Name, i, e.ID)
			}
			if freed[e.ID] {
				return fmt.Errorf("trace %s: event %d: id %d reused after free", t.Name, i, e.ID)
			}
			live[e.ID] = true
		case KindFree:
			if !live[e.ID] {
				return fmt.Errorf("trace %s: event %d: free of dead id %d", t.Name, i, e.ID)
			}
			delete(live, e.ID)
			freed[e.ID] = true
		case KindAccess:
			if !live[e.ID] {
				return fmt.Errorf("trace %s: event %d: access to dead id %d", t.Name, i, e.ID)
			}
			if e.Reads == 0 && e.Writes == 0 {
				return fmt.Errorf("trace %s: event %d: empty access", t.Name, i)
			}
		case KindTick:
			if e.Cycles == 0 {
				return fmt.Errorf("trace %s: event %d: zero tick", t.Name, i)
			}
		default:
			return fmt.Errorf("trace %s: event %d: unknown kind %d", t.Name, i, e.Kind)
		}
	}
	return nil
}

// Builder incrementally constructs a valid trace, handing out IDs.
type Builder struct {
	t      Trace
	nextID uint64
	live   map[uint64]bool
}

// NewBuilder returns a builder for a trace with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{t: Trace{Name: name}, nextID: 1, live: make(map[uint64]bool)}
}

// Alloc appends an allocation of size bytes and returns its ID.
func (b *Builder) Alloc(size int64) uint64 {
	if size <= 0 {
		panic(fmt.Sprintf("trace: alloc size %d", size))
	}
	id := b.nextID
	b.nextID++
	b.live[id] = true
	b.t.Events = append(b.t.Events, Event{Kind: KindAlloc, ID: id, Size: size})
	return id
}

// Free appends a free of id. It panics when id is not live — generator
// bugs must fail loudly, not produce invalid workloads.
func (b *Builder) Free(id uint64) {
	if !b.live[id] {
		panic(fmt.Sprintf("trace: free of dead id %d", id))
	}
	delete(b.live, id)
	b.t.Events = append(b.t.Events, Event{Kind: KindFree, ID: id})
}

// Access appends an application access to live allocation id. Reads and
// writes must each fit in 32 bits.
func (b *Builder) Access(id uint64, reads, writes uint64) {
	if !b.live[id] {
		panic(fmt.Sprintf("trace: access to dead id %d", id))
	}
	mustFit("access reads", reads)
	mustFit("access writes", writes)
	if reads == 0 && writes == 0 {
		return
	}
	b.t.Events = append(b.t.Events, Event{Kind: KindAccess, ID: id, Reads: uint32(reads), Writes: uint32(writes)})
}

// Tick appends cycles of CPU compute work (0 is a no-op). Cycles must
// fit in 32 bits.
func (b *Builder) Tick(cycles uint64) {
	mustFit("tick cycles", cycles)
	if cycles == 0 {
		return
	}
	b.t.Events = append(b.t.Events, Event{Kind: KindTick, Cycles: uint32(cycles)})
}

// mustFit panics on an out-of-range Access or Tick argument — a
// generator bug, which must fail loudly rather than truncate.
func mustFit(what string, v uint64) {
	if err := checkArg(what, v); err != nil {
		panic("trace: " + err.Error())
	}
}

// Live returns the IDs currently live, in unspecified order.
func (b *Builder) Live() []uint64 {
	ids := make([]uint64, 0, len(b.live))
	for id := range b.live {
		ids = append(ids, id)
	}
	return ids
}

// NumLive returns the number of live allocations.
func (b *Builder) NumLive() int { return len(b.live) }

// FreeAll frees every live allocation (deterministic ascending-ID order)
// so traces end with an empty heap.
func (b *Builder) FreeAll() {
	ids := b.Live()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b.Free(id)
	}
}

// Build finalizes and returns the trace. The builder must not be used
// afterwards.
func (b *Builder) Build() *Trace {
	t := b.t
	return &t
}
