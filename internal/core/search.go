package core

import (
	"fmt"

	"dmexplore/internal/stats"
)

// ScreenAndRefine is the sampled alternative to the paper's exhaustive
// sweep for spaces too large to enumerate: a uniform screening sample,
// then exhaustive Hamming-1 neighbourhoods around the screened Pareto
// front. Like NSGA-II (EvolveIsland) it evaluates through an evalBatcher
// over one persistent EvalSession, so each wave (the screening sample,
// each refinement ring) saturates the worker pool, configurations are
// deduplicated, and the walk is the same for any Runner.Workers: every
// random draw happens on the coordinating goroutine and batch results
// come back in request order.

// digits decodes a space index into per-axis option indices and back.
func (s *Space) digits(idx int) []int {
	out := make([]int, len(s.Axes))
	s.digitsInto(out, idx)
	return out
}

// digitsInto decodes idx into dst, which must have len(s.Axes) elements.
func (s *Space) digitsInto(dst []int, idx int) {
	for i := len(s.Axes) - 1; i >= 0; i-- {
		n := len(s.Axes[i].Options)
		dst[i] = idx % n
		idx /= n
	}
}

func (s *Space) index(digits []int) int {
	idx := 0
	for i, d := range digits {
		idx = idx*len(s.Axes[i].Options) + d
	}
	return idx
}

// neighborCount returns the number of Hamming-1 neighbours every
// configuration has: sum over axes of (options - 1).
func (s *Space) neighborCount() int {
	n := 0
	for _, ax := range s.Axes {
		n += len(ax.Options) - 1
	}
	return n
}

// appendNeighbors appends all Hamming-1 neighbours of idx to dst and
// returns the extended slice. scratch must have len(s.Axes) elements; it
// is the digit buffer, mutated one axis at a time and restored, so the
// whole enumeration allocates nothing beyond dst growth.
func (s *Space) appendNeighbors(dst []int, scratch []int, idx int) []int {
	s.digitsInto(scratch, idx)
	for ax := range s.Axes {
		base := scratch[ax]
		for v := 0; v < len(s.Axes[ax].Options); v++ {
			if v == base {
				continue
			}
			scratch[ax] = v
			dst = append(dst, s.index(scratch))
		}
		scratch[ax] = base
	}
	return dst
}

// neighborScratch bundles the reusable buffers a strategy needs to
// enumerate neighbourhoods without per-step allocation.
type neighborScratch struct {
	digits []int
	out    []int
}

func newNeighborScratch(s *Space) *neighborScratch {
	return &neighborScratch{
		digits: make([]int, len(s.Axes)),
		out:    make([]int, 0, s.neighborCount()),
	}
}

// neighbors enumerates idx's neighbourhood into the scratch buffer; the
// returned slice is valid until the next call.
func (ns *neighborScratch) neighbors(s *Space, idx int) []int {
	ns.out = s.appendNeighbors(ns.out[:0], ns.digits, idx)
	return ns.out
}

// ScreenAndRefine approximates the Pareto front without a full sweep:
// profile a uniform screening sample, reduce it to its front, then
// exhaustively profile the Hamming-1 neighbourhood of every front member
// (repeating until the front stops improving or the budget is spent).
// Returns every profiled configuration; callers run ParetoSet over it.
//
// The screening sample is one evaluation wave; each refinement ring (the
// union of all unseen front-member neighbours, budget-capped) is another.
func (r *Runner) ScreenAndRefine(space *Space, objectives []string, screen, budget int, seed uint64) ([]Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if screen <= 0 || budget < screen {
		return nil, fmt.Errorf("core: screen %d / budget %d invalid", screen, budget)
	}
	sess, err := r.NewSession(space)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	rng := stats.NewRNG(seed)
	b := newEvalBatcher(sess, "screen-refine")
	scratch := newNeighborScratch(space)

	// Screening sample: one wave.
	perm := rng.Perm(space.Size())
	if screen > len(perm) {
		screen = len(perm)
	}
	for _, idx := range perm[:screen] {
		b.tag(idx, "screen")
	}
	if _, err := b.getBatch(perm[:screen]); err != nil {
		return nil, err
	}

	for b.len() < budget {
		front, _, err := ParetoSet(Feasible(b.all()), objectives)
		if err != nil {
			return nil, err
		}
		// Refinement ring: every unseen neighbour of every front member,
		// deduplicated, capped at the remaining budget.
		var ring []int
		inRing := make(map[int]bool)
		remaining := budget - b.len()
		for _, f := range front {
			for _, n := range scratch.neighbors(space, f.Index) {
				if len(ring) >= remaining {
					break
				}
				if inRing[n] || b.has(n) {
					continue
				}
				inRing[n] = true
				b.tag(n, "refine", f.Index)
				ring = append(ring, n)
			}
		}
		if len(ring) == 0 {
			break
		}
		if _, err := b.getBatch(ring); err != nil {
			return nil, err
		}
	}
	return b.all(), nil
}
