// Package simheap provides the simulated-memory substrate the allocator
// framework runs on. Go has no manual memory management, so dmexplore does
// not allocate real memory: allocators operate on a modelled address space
// and explicitly account every word of metadata and application data they
// would touch on the target platform. The profiling metrics of the paper
// (memory accesses, memory footprint, energy, execution time per hierarchy
// layer) are all derived from the counters this package maintains.
//
// A Context binds a memhier.Hierarchy to a set of per-layer counters and a
// cycle clock. Pools reserve arenas (Regions) from a layer; every metadata
// or application access is charged to the layer holding the touched
// address via Read/Write. CPU-only work advances the clock via Compute.
package simheap

import (
	"fmt"

	"dmexplore/internal/memhier"
)

// WordSize is the machine word size of the modelled platform in bytes.
// The modelled target is a 32-bit embedded core, matching the paper's
// platforms (ARM-class SoCs).
const WordSize = 8 // bytes; 64-bit words keep header math simple

// WordBits is the number of bits per word.
const WordBits = WordSize * 8

// LayerCounters accumulates the per-layer profiling state.
type LayerCounters struct {
	Reads  uint64 // word reads charged to this layer
	Writes uint64 // word writes charged to this layer

	ReservedBytes int64 // bytes currently reserved from the layer
	PeakBytes     int64 // high-water mark of ReservedBytes
}

// Accesses returns reads+writes.
func (c LayerCounters) Accesses() uint64 { return c.Reads + c.Writes }

// Context is a simulation context: the hierarchy, the per-layer counters,
// and the cycle clock. It is not safe for concurrent use; explorations run
// one Context per goroutine.
type Context struct {
	hier     *memhier.Hierarchy
	counters []LayerCounters
	nextBase []uint64 // per-layer bump pointer for region bases
	cycles   uint64

	// readCycles/writeCycles cache each layer's flat access latency so the
	// hot path never copies a Layer struct out of the hierarchy.
	readCycles  []uint64
	writeCycles []uint64

	// fast is true while no tracer or cache is attached — the common
	// exploration case — and gates a batched access path that pays
	// the model-dispatch branch chain once per charge, not once per word.
	fast bool

	// totalReserved is the running sum of all layers' ReservedBytes,
	// maintained by Reserve/Release so footprint-over-time sampling is
	// O(1) instead of a per-sample layer loop.
	totalReserved int64

	// caches, when non-nil, interposes a cache in front of the layer with
	// the same index; accesses then additionally charge the backing layer
	// on misses. Entries may be nil (no cache for that layer).
	caches []*memhier.Cache

	// trace, when non-nil, receives every charged access (used by the
	// raw-profile-log emitter).
	trace AccessTracer
}

// AccessTracer observes every charged access. Implementations must be
// cheap: the profiler's log emitter is the only expected user.
type AccessTracer interface {
	TraceAccess(layer memhier.LayerID, addr uint64, words uint64, write bool)
}

// NewContext returns a fresh context over h.
func NewContext(h *memhier.Hierarchy) *Context {
	ctx := new(Context)
	ctx.Reset(h)
	return ctx
}

// Reset makes ctx a fresh context over h, as NewContext(h) would return,
// reusing its per-layer tables: counters and clock start at zero, and
// the tracer and caches are dropped.
// Regions reserved before the reset must not be used after it.
func (ctx *Context) Reset(h *memhier.Hierarchy) {
	n := h.NumLayers()
	ctx.hier = h
	ctx.counters = zeroed(ctx.counters, n)
	ctx.nextBase = zeroed(ctx.nextBase, n)
	ctx.caches = zeroed(ctx.caches, n)
	ctx.readCycles = zeroed(ctx.readCycles, n)
	ctx.writeCycles = zeroed(ctx.writeCycles, n)
	for i := 0; i < n; i++ {
		layer := h.Layer(memhier.LayerID(i))
		ctx.readCycles[i] = uint64(layer.ReadCycles)
		ctx.writeCycles[i] = uint64(layer.WriteCycles)
	}
	ctx.cycles, ctx.totalReserved = 0, 0
	ctx.trace = nil
	ctx.fast = true
}

// zeroed returns s resized to n zero values, reusing its array when it
// can.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Hierarchy returns the hierarchy the context simulates.
func (ctx *Context) Hierarchy() *memhier.Hierarchy { return ctx.hier }

// SetTracer installs (or clears, with nil) an access tracer.
func (ctx *Context) SetTracer(t AccessTracer) {
	ctx.trace = t
	ctx.updateFast()
}

// updateFast recomputes whether the batched no-model access path applies.
func (ctx *Context) updateFast() {
	ctx.fast = ctx.trace == nil
	if !ctx.fast {
		return
	}
	for i := range ctx.caches {
		if ctx.caches[i] != nil {
			ctx.fast = false
			return
		}
	}
}

// AttachCache interposes a cache in front of layer id. Accesses to that
// layer then hit the cache; misses charge the layer itself for the line
// fill (and write-back). The cache's own access cost is modelled as one
// cycle and the layer's ReadEnergy/8 per access, a conventional
// tag+data-array approximation.
func (ctx *Context) AttachCache(id memhier.LayerID, c *memhier.Cache) error {
	if !ctx.hier.Valid(id) {
		return fmt.Errorf("simheap: invalid layer %d", id)
	}
	ctx.caches[id] = c
	ctx.updateFast()
	return nil
}

// Cache returns the cache attached to layer id, or nil.
func (ctx *Context) Cache(id memhier.LayerID) *memhier.Cache { return ctx.caches[id] }

// Counters returns a snapshot of the counters for layer id.
func (ctx *Context) Counters(id memhier.LayerID) LayerCounters { return ctx.counters[id] }

// ResetPeak restarts layer id's high-water mark at its current reserved
// bytes, so PeakBytes then reads the maximum since the reset.
func (ctx *Context) ResetPeak(id memhier.LayerID) {
	ctx.counters[id].PeakBytes = ctx.counters[id].ReservedBytes
}

// Cycles returns the current simulated cycle count: the clock plus every
// charged word at its layer's flat latency (see Read).
func (ctx *Context) Cycles() uint64 {
	total := ctx.cycles
	for i, c := range ctx.counters {
		total += c.Reads*ctx.readCycles[i] + c.Writes*ctx.writeCycles[i]
	}
	return total
}

// Flat reports whether the cost model is flat: no tracer or cache is
// attached, so an access costs the same wherever it lands and a
// run of charges to one layer may be folded into a single call.
func (ctx *Context) Flat() bool { return ctx.fast }

// Compute advances the clock by n CPU cycles without touching memory.
// Allocator search loops use it for their non-memory work.
func (ctx *Context) Compute(n uint64) { ctx.cycles += n }

// Read charges words word-reads at addr to layer id. Under the flat cost
// model it only bumps the layer's counter, small enough to inline into
// the allocators' metadata charges: Cycles adds the counted words' flat
// latency when asked. The modelled path keeps the sum exact by taking
// the flat latency of the words it counts back off the clock.
func (ctx *Context) Read(id memhier.LayerID, addr uint64, words uint64) {
	if ctx.fast {
		ctx.counters[id].Reads += words
		return
	}
	ctx.access(id, addr, words, false)
}

// Write charges words word-writes at addr to layer id, like Read.
func (ctx *Context) Write(id memhier.LayerID, addr uint64, words uint64) {
	if ctx.fast {
		ctx.counters[id].Writes += words
		return
	}
	ctx.access(id, addr, words, true)
}

// access is the modelled path: tracer and cache. Latencies come from
// the cached per-layer cycles. Every word it adds to a counter is
// already worth its flat latency in Cycles, so the clock gets the
// modelled latency minus the flat one (in modular uint64 arithmetic,
// exact once Cycles adds the flat part back).
func (ctx *Context) access(id memhier.LayerID, addr uint64, words uint64, write bool) {
	if words == 0 {
		return
	}
	c := &ctx.counters[id]
	if ctx.trace != nil {
		ctx.trace.TraceAccess(id, addr, words, write)
	}
	if cache := ctx.caches[id]; cache != nil {
		// Word-by-word through the cache; line fills charge the layer.
		// Fills and write-backs are burst transfers: the first word pays
		// the full layer latency, subsequent words stream at one cycle.
		for i := uint64(0); i < words; i++ {
			res := cache.Access(addr+i, write)
			ctx.cycles++ // cache access latency
			if !res.Hit {
				c.Reads += res.BackingReads
				c.Writes += res.BackingWrite
				ctx.cycles -= res.BackingReads*ctx.readCycles[id] + res.BackingWrite*ctx.writeCycles[id]
				if res.BackingReads > 0 {
					ctx.cycles += ctx.readCycles[id] + (res.BackingReads - 1)
				}
				if res.BackingWrite > 0 {
					ctx.cycles += ctx.writeCycles[id] + (res.BackingWrite - 1)
				}
			}
		}
		return
	}
	if write {
		c.Writes += words
	} else {
		c.Reads += words
	}
}

// Fits reports whether layer id can take another size bytes: always for
// an unbounded layer, otherwise when the reservation stays within its
// capacity. Reserve fails exactly when Fits is false (for a valid layer
// and positive size), so callers may test first and fail without the
// CapacityError allocation.
func (ctx *Context) Fits(id memhier.LayerID, size int64) bool {
	layer := ctx.hier.Layer(id)
	return !layer.Bounded() || ctx.counters[id].ReservedBytes+size <= layer.Capacity
}

// Reserve claims size bytes from layer id and returns the region, by
// value, so a pool keeps it without a heap allocation. It fails when the
// layer is bounded and the reservation would exceed its capacity — the
// simulated equivalent of a scratchpad overflow.
func (ctx *Context) Reserve(id memhier.LayerID, size int64) (Region, error) {
	if !ctx.hier.Valid(id) {
		return Region{}, fmt.Errorf("simheap: invalid layer %d", id)
	}
	if size <= 0 {
		return Region{}, fmt.Errorf("simheap: non-positive reservation %d", size)
	}
	layer := ctx.hier.Layer(id)
	c := &ctx.counters[id]
	if layer.Bounded() && c.ReservedBytes+size > layer.Capacity {
		return Region{}, &CapacityError{
			Layer: layer.Name, Requested: size,
			InUse: c.ReservedBytes, Capacity: layer.Capacity,
		}
	}
	base := ctx.nextBase[id]
	ctx.nextBase[id] += uint64(size)
	c.ReservedBytes += size
	ctx.totalReserved += size
	if c.ReservedBytes > c.PeakBytes {
		c.PeakBytes = c.ReservedBytes
	}
	return Region{ctx: ctx, layer: id, base: base, size: size}, nil
}

// TotalPeakBytes returns the peak footprint summed over all layers.
// Note this sums per-layer peaks; the scalar footprint metric the paper
// reports is the peak of the total, which the profiler tracks separately
// when needed — for pool-reserved memory the two coincide because pools
// only grow.
func (ctx *Context) TotalPeakBytes() int64 {
	var total int64
	for i := range ctx.counters {
		total += ctx.counters[i].PeakBytes
	}
	return total
}

// TotalReservedBytes returns the bytes currently reserved across all
// layers — the instantaneous footprint the profiler samples for
// footprint-over-time series. It is O(1): Reserve and Release maintain
// the running total.
func (ctx *Context) TotalReservedBytes() int64 { return ctx.totalReserved }

// TotalAccesses returns reads+writes summed over all layers.
func (ctx *Context) TotalAccesses() uint64 {
	var total uint64
	for i := range ctx.counters {
		total += ctx.counters[i].Accesses()
	}
	return total
}

// Energy returns the total memory energy in nanojoules under the
// hierarchy's cost model: dynamic access energy plus capacity leakage
// integrated over the run time.
func (ctx *Context) Energy() float64 {
	return EnergyOf(ctx.hier, ctx.counters, ctx.Cycles())
}

// EnergyOf computes the memory energy of a run described by per-layer
// counters (indexed by LayerID) and a cycle count under h's cost
// model. It is the pure-function core of Context.Energy; the
// incremental evaluator calls it with composed counters so a partial
// replay reproduces the exact float summation order — and therefore the
// bit-identical result — of a full run.
func EnergyOf(h *memhier.Hierarchy, counters []LayerCounters, cycles uint64) float64 {
	var e float64
	kilocycles := float64(cycles) / 1000
	for i := range counters {
		layer := h.Layer(memhier.LayerID(i))
		c := counters[i]
		e += float64(c.Reads) * layer.ReadEnergy
		e += float64(c.Writes) * layer.WriteEnergy
		if layer.LeakagePower > 0 {
			peakKB := float64(c.PeakBytes) / 1024
			e += layer.LeakagePower * peakKB * kilocycles
		}
	}
	return e
}

// CapacityError reports a failed reservation on a bounded layer.
type CapacityError struct {
	Layer     string
	Requested int64
	InUse     int64
	Capacity  int64
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("simheap: layer %s full: %d requested, %d/%d in use",
		e.Layer, e.Requested, e.InUse, e.Capacity)
}

// Region is a contiguous arena reserved from one layer. Pools carve their
// blocks out of regions; block addresses are region-relative plus base.
// A pool holds its Regions by value; Release marks the copy it is
// called on.
type Region struct {
	ctx      *Context
	layer    memhier.LayerID
	base     uint64
	size     int64
	released bool
}

// Layer returns the layer the region lives in.
func (r *Region) Layer() memhier.LayerID { return r.layer }

// Base returns the region's base address (within its layer's space).
func (r *Region) Base() uint64 { return r.base }

// Size returns the region size in bytes.
func (r *Region) Size() int64 { return r.size }

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.base + uint64(r.size) }

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.base && addr < r.End()
}

// Read charges words word-reads at addr (absolute) to the region's layer.
func (r *Region) Read(addr uint64, words uint64) { r.ctx.Read(r.layer, addr, words) }

// Write charges words word-writes at addr (absolute) to the region's layer.
func (r *Region) Write(addr uint64, words uint64) { r.ctx.Write(r.layer, addr, words) }

// Release returns the region's bytes to the layer accounting. Releasing
// twice is a programming error and panics, matching the double-free
// semantics the allocator framework itself enforces for blocks.
func (r *Region) Release() {
	if r.released {
		panic("simheap: region released twice")
	}
	r.released = true
	r.ctx.counters[r.layer].ReservedBytes -= r.size
	r.ctx.totalReserved -= r.size
}
