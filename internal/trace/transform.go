package trace

import (
	"fmt"

	"dmexplore/internal/stats"
)

// Transforms over traces: interleaving several applications into one
// combined trace (the multi-application SoC scenario — several dynamic
// tasks sharing one DM subsystem).

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
