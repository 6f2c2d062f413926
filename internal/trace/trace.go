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
	"slices"
	"strconv"
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

// Event is one trace record, packed into two words (16 bytes) because
// the in-memory trace is the explorer's largest data structure. The
// first word holds the kind in its top 3 bits (so the zero Event has an
// invalid kind) and the allocation ID in the low 61 bits; the second
// holds the kind's argument: Alloc size, Access reads<<32|writes, Tick
// cycles, 0 for Free. Build events with AllocEvent, FreeEvent,
// AccessEvent and TickEvent and read them through the accessor methods.
// IDs above MaxID and Access or Tick arguments above 32 bits do not fit:
// the decoders reject them, Builder panics on them, and the
// constructors panic on an ID above MaxID, so nothing is ever truncated.
type Event struct {
	head uint64 // kind<<idBits | ID
	arg  uint64
}

// idBits is the width of an Event's allocation ID.
const idBits = 61

// MaxID is the largest allocation ID an Event holds.
const MaxID = 1<<idBits - 1

// newEvent packs an event, panicking on an ID above MaxID.
func newEvent(kind EventKind, id, arg uint64) Event {
	if id > MaxID {
		panic(idRangeError(id)) // a caller bug: fail loudly, never truncate
	}
	return Event{head: uint64(kind)<<idBits | id, arg: arg}
}

// AllocEvent returns an allocation of size bytes for id.
func AllocEvent(id uint64, size int64) Event { return newEvent(KindAlloc, id, uint64(size)) }

// FreeEvent returns a free of id.
func FreeEvent(id uint64) Event { return newEvent(KindFree, id, 0) }

// AccessEvent returns reads word-reads and writes word-writes on id.
func AccessEvent(id uint64, reads, writes uint32) Event {
	return newEvent(KindAccess, id, packAccess(reads, writes))
}

// TickEvent returns cycles of CPU compute work.
func TickEvent(cycles uint32) Event { return newEvent(KindTick, 0, uint64(cycles)) }

// WithID returns e with its allocation ID replaced by id.
func (e Event) WithID(id uint64) Event { return newEvent(e.Kind(), id, e.arg) }

// Kind returns the event kind.
func (e Event) Kind() EventKind { return EventKind(e.head >> idBits) }

// ID returns the allocation ID (Alloc/Free/Access; 0 for Tick).
func (e Event) ID() uint64 { return e.head & MaxID }

// Size returns the requested bytes (Alloc).
func (e Event) Size() int64 {
	if e.Kind() != KindAlloc {
		return 0
	}
	return int64(e.arg)
}

// Reads returns the application word reads (Access).
func (e Event) Reads() uint32 {
	if e.Kind() != KindAccess {
		return 0
	}
	return uint32(e.arg >> 32)
}

// Writes returns the application word writes (Access).
func (e Event) Writes() uint32 {
	if e.Kind() != KindAccess {
		return 0
	}
	return uint32(e.arg)
}

// Cycles returns the CPU cycles (Tick).
func (e Event) Cycles() uint32 {
	if e.Kind() != KindTick {
		return 0
	}
	return uint32(e.arg)
}

// String formats e as its text-format record.
func (e Event) String() string { return string(e.appendText(nil)) }

// appendText appends e's text-format record, without the newline, to b.
func (e Event) appendText(b []byte) []byte {
	kind := e.Kind()
	switch kind {
	case KindAlloc:
		b = append(b, "a "...)
	case KindFree:
		b = append(b, "f "...)
	case KindAccess:
		b = append(b, "x "...)
	case KindTick:
		return strconv.AppendUint(append(b, "t "...), uint64(e.Cycles()), 10)
	default:
		return append(b, kind.String()...)
	}
	b = strconv.AppendUint(b, e.ID(), 10)
	switch kind {
	case KindAlloc:
		b = strconv.AppendInt(append(b, ' '), e.Size(), 10)
	case KindAccess:
		b = strconv.AppendUint(append(b, ' '), uint64(e.Reads()), 10)
		b = strconv.AppendUint(append(b, ' '), uint64(e.Writes()), 10)
	}
	return b
}

// checkArg rejects an Access or Tick argument that does not fit its
// 32 bits; what names the argument in the error.
func checkArg(what string, v uint64) error {
	if v > math.MaxUint32 {
		return fmt.Errorf("%s %d exceeds the 32-bit limit", what, v)
	}
	return nil
}

// idRangeError reports an allocation ID above MaxID.
type idRangeError uint64

func (e idRangeError) Error() string {
	return fmt.Sprintf("id %d exceeds the 61-bit limit", uint64(e))
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
// It runs Compile's checking pass, so a trace compiles iff it is valid,
// with the same error.
func (t *Trace) Validate() error { return scan(t.Name, t.Events, nil) }

// Builder incrementally constructs a valid trace, handing out the IDs
// 1, 2, 3, ... in order.
type Builder struct {
	t      Trace
	nextID uint64
	live   []bool // live[id-1]: id is allocated and not yet freed
	nlive  int
}

// NewBuilder returns a builder for a trace with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{t: Trace{Name: name}, nextID: 1}
}

// Alloc appends an allocation of size bytes and returns its ID. It
// panics once the IDs it hands out would pass MaxID.
func (b *Builder) Alloc(size int64) uint64 {
	if size <= 0 {
		panic(fmt.Sprintf("trace: alloc size %d", size))
	}
	id := b.nextID
	b.t.Events = append(b.t.Events, AllocEvent(id, size))
	b.nextID++
	b.live = append(b.live, true)
	b.nlive++
	return id
}

// Free appends a free of id. It panics when id is not live — generator
// bugs must fail loudly, not produce invalid workloads.
func (b *Builder) Free(id uint64) {
	if !b.isLive(id) {
		panic(fmt.Sprintf("trace: free of dead id %d", id))
	}
	b.live[id-1] = false
	b.nlive--
	b.t.Events = append(b.t.Events, FreeEvent(id))
}

// Access appends an application access to live allocation id. Reads and
// writes must each fit in 32 bits.
func (b *Builder) Access(id uint64, reads, writes uint64) {
	if !b.isLive(id) {
		panic(fmt.Sprintf("trace: access to dead id %d", id))
	}
	mustFit("access reads", reads)
	mustFit("access writes", writes)
	if reads == 0 && writes == 0 {
		return
	}
	b.t.Events = append(b.t.Events, AccessEvent(id, uint32(reads), uint32(writes)))
}

// Tick appends cycles of CPU compute work (0 is a no-op). Cycles must
// fit in 32 bits.
func (b *Builder) Tick(cycles uint64) {
	mustFit("tick cycles", cycles)
	if cycles == 0 {
		return
	}
	b.t.Events = append(b.t.Events, TickEvent(uint32(cycles)))
}

// mustFit panics on an out-of-range Access or Tick argument — a
// generator bug, which must fail loudly rather than truncate.
func mustFit(what string, v uint64) {
	if err := checkArg(what, v); err != nil {
		panic("trace: " + err.Error())
	}
}

// isLive reports whether id is allocated and not yet freed.
func (b *Builder) isLive(id uint64) bool {
	return id-1 < uint64(len(b.live)) && b.live[id-1]
}

// Live returns the IDs currently live, in ascending order.
func (b *Builder) Live() []uint64 {
	ids := make([]uint64, 0, b.nlive)
	for i, l := range b.live {
		if l {
			ids = append(ids, uint64(i)+1)
		}
	}
	return ids
}

// NumLive returns the number of live allocations.
func (b *Builder) NumLive() int { return b.nlive }

// FreeAll frees every live allocation, in ascending ID order, so traces
// end with an empty heap.
func (b *Builder) FreeAll() {
	for i, l := range b.live {
		if l {
			b.Free(uint64(i) + 1)
		}
	}
}

// Grow reserves room for n more events. A generator that knows its
// trace's rough length calls it once, so the event slice is not regrown
// (and its old copies left as garbage) as the trace is built.
func (b *Builder) Grow(n int) {
	b.t.Events = slices.Grow(b.t.Events, n)
}

// Build finalizes and returns the trace. The builder must not be used
// afterwards.
func (b *Builder) Build() *Trace {
	t := b.t
	return &t
}
