// Package alloc implements the parameterized dynamic-memory allocator
// framework — the Go counterpart of the paper's C++ template/mixin library
// of ">50 modules". Allocators are assembled from orthogonal policy
// modules (free-list order and linkage, fit policy, size-class map,
// splitting, coalescing, header layout, pool growth) into any number of
// custom configurations, each of which can map its pools onto arbitrary
// layers of the simulated memory hierarchy.
//
// Allocators do not manage real memory: they run on the simheap substrate
// and charge every word of metadata they would touch on the target, so
// profiled access counts, footprint, energy and cycle figures reflect the
// behaviour of the modelled implementation.
package alloc

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// Ptr identifies a live allocation: the layer holding it, the payload
// address within that layer's address space, and an unexported handle
// naming the issuing allocator's bookkeeping entry. Free accepts only a
// Ptr that Malloc issued: a hand-built Ptr, the zero Ptr, a Ptr from
// another allocator or one whose allocation has been freed (even if its
// slot was since reused) is rejected.
type Ptr struct {
	Layer memhier.LayerID
	Addr  uint64
	h     handle
}

// handle ties a Ptr to the entry that issued it: slot indexes the
// issuing pool's dense table (a fixed pool's page table of slots) and
// tag is the stamp recorded there. Tags are unique across every
// allocator in the process and at least firstTag, so a stale, forged or
// foreign Ptr matches no live entry. pool names the
// serving pool within a Composed (see Composed.route); a bare pool
// leaves it 0. It sits in what would otherwise be padding, so a Ptr
// stays 32 bytes.
type handle struct {
	slot uint32
	pool uint32
	tag  uint64
}

// tagSpace hands out disjoint 2^32-tag ranges, one per tagger claim.
var tagSpace atomic.Uint64

// firstTag is below every tag: the first claim is range 1.
const firstTag = 1 << 32

// tagger issues tags from its claimed range. The zero tagger claims its
// range on first use, and a fresh one when the range runs out.
type tagger uint64

func (t *tagger) next() uint64 {
	if *t == 0 || uint32(*t) == 1<<32-1 {
		*t = tagger(tagSpace.Add(1) << 32)
	}
	*t++
	return uint64(*t)
}

// handleTable is a dense table of live allocations addressed by handle.
// Freed slots are reused newest first, so the table stays as large as
// the peak live count and malloc/free touch no Go map.
type handleTable[T any] struct {
	entries []tableEntry[T]
	free    []uint32 // reusable slots
	tags    tagger
}

type tableEntry[T any] struct {
	tag uint64 // 0 while the slot is free
	val T
}

// put stores v in a free slot and returns its handle.
func (t *handleTable[T]) put(v T) handle {
	var slot uint32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		slot = uint32(len(t.entries))
		t.entries = append(t.entries, tableEntry[T]{})
	}
	tag := t.tags.next()
	t.entries[slot] = tableEntry[T]{tag: tag, val: v}
	return handle{slot: slot, tag: tag}
}

// get returns the live entry h names, or nil. The pointer is valid until
// the next put.
func (t *handleTable[T]) get(h handle) *T {
	if h.tag == 0 || int(h.slot) >= len(t.entries) {
		return nil
	}
	e := &t.entries[h.slot]
	if e.tag != h.tag {
		return nil
	}
	return &e.val
}

// drop frees the slot of h, which get must have just accepted.
func (t *handleTable[T]) drop(h handle) {
	t.entries[h.slot] = tableEntry[T]{}
	t.free = append(t.free, h.slot)
}

// Allocator is a dynamic-memory allocator configuration under simulation.
type Allocator interface {
	// Malloc allocates size bytes and returns the payload pointer.
	// It returns ErrOutOfMemory when no pool can satisfy the request.
	Malloc(size int64) (Ptr, error)
	// Free releases a pointer previously returned by Malloc. Any other
	// Ptr — already freed, hand-built, zero or issued by another
	// allocator — returns ErrBadFree.
	Free(p Ptr) error
}

// Allocation errors.
var (
	// ErrOutOfMemory reports that no pool could satisfy a request, e.g.
	// because a bounded layer is exhausted.
	ErrOutOfMemory = errors.New("alloc: out of memory")
	// ErrBadFree reports a free of an unknown or already-freed pointer.
	ErrBadFree = errors.New("alloc: bad free")
	// ErrBadSize reports a non-positive allocation size.
	ErrBadSize = errors.New("alloc: bad size")
)

// oomError is an out-of-memory failure. It is one byte wide, so
// returning it as an error allocates nothing, and its message is built
// only when Error is called. errors.Is matches it to ErrOutOfMemory.
type oomError uint8

const (
	errFixedBudget oomError = iota + 1 // a fixed pool's MaxBytes is spent
	errPoolBudget                      // a general pool's MaxBytes is spent
	errBuddyBudget                     // a buddy pool's MaxBytes is spent
	errLayerFull                       // the pool's bounded layer is full
)

func (e oomError) Error() string {
	reason := "layer capacity exhausted"
	switch e {
	case errFixedBudget:
		reason = "fixed pool budget exhausted"
	case errPoolBudget:
		reason = "pool budget exhausted"
	case errBuddyBudget:
		reason = "buddy budget exhausted"
	}
	return ErrOutOfMemory.Error() + ": " + reason
}

// Is reports whether target is ErrOutOfMemory.
func (e oomError) Is(target error) bool { return target == ErrOutOfMemory }

// reserve claims size bytes from layer for a pool arena. A bounded layer
// that cannot hold them fails with errLayerFull, without allocating.
func reserve(ctx *simheap.Context, layer memhier.LayerID, size int64) (simheap.Region, error) {
	if !ctx.Fits(layer, size) {
		return simheap.Region{}, errLayerFull
	}
	return ctx.Reserve(layer, size)
}

// badFree reports a Free of a Ptr the pool did not issue or already
// freed.
func badFree(p Ptr) error {
	return fmt.Errorf("%w: layer %d addr %#x", ErrBadFree, p.Layer, p.Addr)
}

// align rounds n up to the next multiple of a (a must be a power of two).
func align(n int64, a int64) int64 {
	return (n + a - 1) &^ (a - 1)
}

// checkSize validates a requested allocation size.
func checkSize(size int64) error {
	if size <= 0 {
		return fmt.Errorf("%w: %d", ErrBadSize, size)
	}
	return nil
}
