package trace

import (
	"fmt"

	"dmexplore/internal/stats"
)

// Transforms over traces: slicing a window out of a long capture and
// interleaving several applications into one combined trace (the
// multi-application SoC scenario — several dynamic tasks sharing one
// DM subsystem).

// Slice returns the sub-trace of events [from, to) made self-contained:
// allocations live at 'from' are re-created at the start (so frees and
// accesses inside the window stay valid), and allocations still live at
// 'to' are left unfreed (truncation does not invent frees).
func Slice(t *Trace, from, to int) (*Trace, error) {
	if from < 0 || to > len(t.Events) || from > to {
		return nil, fmt.Errorf("trace: slice [%d,%d) out of range 0..%d", from, to, len(t.Events))
	}
	out := &Trace{Name: fmt.Sprintf("%s[%d:%d]", t.Name, from, to)}

	// Allocations live at the window start, in allocation order.
	dense, allocs := newIDTable(t.Events[:from])
	size := make([]int64, allocs) // dense ID -> requested bytes; 0 when not live
	for _, e := range t.Events[:from] {
		switch e.Kind() {
		case KindAlloc:
			idx, _ := dense.add(e.ID())
			size[idx] = e.Size()
		case KindFree:
			if idx, ok := dense.lookup(e.ID()); ok {
				size[idx] = 0
			}
		}
	}
	for idx, sz := range size {
		if sz > 0 {
			out.Events = append(out.Events, AllocEvent(dense.raw[idx], sz))
		}
	}
	out.Events = append(out.Events, t.Events[from:to]...)
	return out, nil
}

// Interleave merges several traces into one combined multi-application
// trace. Events keep their per-trace order; the merge interleaves
// proportionally to the remaining lengths with deterministic
// pseudo-random arbitration (seed). IDs are remapped to avoid collisions.
func Interleave(name string, seed uint64, traces ...*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: nothing to interleave")
	}
	total := 0
	for _, t := range traces {
		total += len(t.Events)
	}
	out := &Trace{Name: name, Events: make([]Event, 0, total)}
	rng := stats.NewRNG(seed)
	pos := make([]int, len(traces))
	idBase, err := idBases(traces)
	if err != nil {
		return nil, err
	}
	for {
		// Weighted pick proportional to remaining events.
		remaining := 0
		for i, t := range traces {
			remaining += len(t.Events) - pos[i]
		}
		if remaining == 0 {
			return out, nil
		}
		x := rng.Int64n(int64(remaining))
		src := -1
		for i, t := range traces {
			r := int64(len(t.Events) - pos[i])
			if x < r {
				src = i
				break
			}
			x -= r
		}
		e := traces[src].Events[pos[src]]
		pos[src]++
		out.Events = append(out.Events, rebase(e, idBase[src]))
	}
}

// idBases gives each input trace a disjoint ID namespace: trace i's IDs
// are shifted by the i-th base. It fails when a shifted ID would pass
// MaxID.
func idBases(traces []*Trace) ([]uint64, error) {
	bases := make([]uint64, len(traces))
	var next uint64 // first ID of the next namespace; at most MaxID+1
	for i, t := range traces {
		bases[i] = next
		top := next + maxID(t) // both terms are at most 2^61, so no wrap
		if top > MaxID {
			return nil, fmt.Errorf("trace: %s: ids shifted by %d pass the 61-bit limit", t.Name, next)
		}
		next = top + 1
	}
	return bases, nil
}

// rebase shifts e's allocation ID by base; an event without an ID (Tick)
// keeps 0.
func rebase(e Event, base uint64) Event {
	if e.ID() == 0 {
		return e
	}
	return e.WithID(e.ID() + base)
}

// maxID returns the largest allocation ID used in t.
func maxID(t *Trace) uint64 {
	var max uint64
	for _, e := range t.Events {
		if id := e.ID(); id > max {
			max = id
		}
	}
	return max
}
