package core

import (
	"fmt"
	"math"

	"dmexplore/internal/profile"
	"dmexplore/internal/stats"
)

// Search strategies for spaces too large to sweep exhaustively. The
// paper's tool enumerates the full product; these extend it with the
// standard design-space-exploration alternatives so a front can be
// approximated at a fraction of the simulations:
//
//   - HillClimb: scalarized (weighted-sum) local search over the axis
//     grid.
//   - Anneal: simulated annealing over the same neighbourhood.
//   - ScreenAndRefine: uniform screening sample, then exhaustive
//     Hamming-1 neighbourhoods around the screened Pareto front — the
//     strategy best matched to Pareto exploration.
//
// All strategies deduplicate configuration evaluations and return every
// result they profiled (so fronts/ranges can be computed over the union).
//
// Every strategy evaluates through an evalBatcher over one persistent
// EvalSession, exposing its natural batch width — the whole Hamming-1
// neighbourhood per climb step, the screening sample and each refinement
// ring, a speculative window of annealing proposals, an NSGA-II offspring
// generation — so the full worker pool stays saturated instead of
// funnelling one configuration at a time. Outcomes are deterministic for
// a given seed regardless of Runner.Workers: every random draw happens on
// the coordinating goroutine, and batch results come back in request
// order.

// Objective weights for scalarized search.
type Weighted struct {
	Objective string
	Weight    float64
}

// scalarize computes the weighted sum of normalized-by-reference
// objectives; infeasible configurations score +Inf.
func scalarize(m *profile.Metrics, weights []Weighted, ref map[string]float64) (float64, error) {
	if !m.Feasible() {
		return math.Inf(1), nil
	}
	var sum float64
	for _, w := range weights {
		v, err := m.Objective(w.Objective)
		if err != nil {
			return 0, err
		}
		r := ref[w.Objective]
		if r <= 0 {
			r = 1
		}
		sum += w.Weight * v / r
	}
	return sum, nil
}

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

// neighbors returns all Hamming-1 neighbours of idx in the axis grid.
// Hot loops should hold their own buffers and call appendNeighbors.
func (s *Space) neighbors(idx int) []int {
	return s.appendNeighbors(make([]int, 0, s.neighborCount()), make([]int, len(s.Axes)), idx)
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

// SearchResult is the outcome of a heuristic search.
type SearchResult struct {
	Best      Result   // best configuration under the scalarized objective
	BestScore float64  // its score
	Evaluated []Result // every profiled configuration, in evaluation order
}

// HillClimb performs steepest-descent local search from a random start,
// restarting until the simulation budget is used. budget counts profiled
// configurations.
//
// Each climb step batches the entire (budget-capped) Hamming-1
// neighbourhood of the current point in one evaluation wave, then applies
// the first-improvement rule over the shuffled order — so the walk is
// identical for any worker count while the simulations run in parallel.
func (r *Runner) HillClimb(space *Space, weights []Weighted, budget int, seed uint64) (*SearchResult, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if len(weights) == 0 || budget <= 0 {
		return nil, fmt.Errorf("core: hill climb needs weights and a positive budget")
	}
	sess, err := r.NewSession(space)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	rng := stats.NewRNG(seed)
	sur := r.newSurrogate(sess, weights)
	b := newEvalBatcher(sess, "hillclimb", sur)
	ref, err := referenceScales(space, b, weights, rng)
	if err != nil {
		return nil, err
	}
	if sur != nil && !sur.ready() {
		// Bootstrap the models past their warm-up threshold with one
		// uniform probe wave (shared with the scales sampler), so the
		// very first neighbourhood is already ranked.
		if _, err := probeSample(space, b, rng, surrogateBootstrapProbes); err != nil {
			return nil, err
		}
	}
	scratch := newNeighborScratch(space)

	best := Result{Index: -1}
	bestScore := math.Inf(1)
	for b.len() < budget {
		start := rng.Intn(space.Size())
		b.tag(start, "restart")
		cur, err := b.getOne(start)
		if err != nil {
			return nil, err
		}
		curScore, err := scalarize(cur.Metrics, weights, ref)
		if err != nil {
			return nil, err
		}
		for b.len() < budget {
			// Without a surrogate the whole neighbourhood is one wave in
			// shuffled order; with one it is evaluated best-predicted first,
			// a chunk at a time, so an accepted move costs a few
			// simulations instead of the whole Hamming-1 ring. The first
			// improvement in that order is taken.
			ns := scratch.neighbors(space, cur.Index)
			chunk := surrogateClimbChunk
			if sur != nil {
				ns = sur.rank(ns)
			} else {
				ns = shuffled(rng, ns)
				chunk = len(ns)
			}
			improved := false
			for off := 0; off < len(ns) && b.len() < budget && !improved; off += chunk {
				wave := b.limit(ns[off:min(off+chunk, len(ns))], budget-b.len())
				for _, n := range wave {
					b.tag(n, "neighbor", cur.Index)
				}
				cands, err := b.getBatch(wave)
				if err != nil {
					return nil, err
				}
				for _, cand := range cands {
					score, err := scalarize(cand.Metrics, weights, ref)
					if err != nil {
						return nil, err
					}
					if score < curScore {
						cur, curScore = cand, score
						improved = true
						break
					}
				}
			}
			if !improved {
				break
			}
		}
		if curScore < bestScore {
			best, bestScore = cur, curScore
		}
	}
	return &SearchResult{Best: best, BestScore: bestScore, Evaluated: b.all()}, nil
}

// annealSpeculation is the number of proposals Anneal batches per wave.
// It is a fixed constant — not derived from Runner.Workers — so the
// search trajectory is identical for any worker count.
const annealSpeculation = 8

// Anneal performs simulated annealing over the axis grid.
//
// Proposals are drawn from a dedicated RNG stream and speculatively
// batched annealSpeculation at a time: all candidates of a wave are
// profiled in parallel, then accept/reject decisions replay sequentially
// over the wave. An acceptance abandons the rest of the wave (those
// proposals came from the superseded state) and re-speculates from the
// new state; rejected-wave evaluations stay in the result set and count
// against the budget, exactly like their serial counterparts.
func (r *Runner) Anneal(space *Space, weights []Weighted, budget int, seed uint64) (*SearchResult, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if len(weights) == 0 || budget <= 0 {
		return nil, fmt.Errorf("core: annealing needs weights and a positive budget")
	}
	sess, err := r.NewSession(space)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	rng := stats.NewRNG(seed)
	sur := r.newSurrogate(sess, weights)
	b := newEvalBatcher(sess, "anneal", sur)
	ref, err := referenceScales(space, b, weights, rng)
	if err != nil {
		return nil, err
	}
	if sur != nil && !sur.ready() {
		if _, err := probeSample(space, b, rng, surrogateBootstrapProbes); err != nil {
			return nil, err
		}
	}
	// The proposal stream is split off the main RNG: accept/reject draws
	// stay on rng, neighbour picks on propRNG, so speculation depth never
	// perturbs the acceptance randomness.
	propRNG := rng.Split()
	scratch := newNeighborScratch(space)

	startIdx := rng.Intn(space.Size())
	b.tag(startIdx, "restart")
	cur, err := b.getOne(startIdx)
	if err != nil {
		return nil, err
	}
	curScore, err := scalarize(cur.Metrics, weights, ref)
	if err != nil {
		return nil, err
	}
	best, bestScore := cur, curScore

	temp := 1.0
	cooling := math.Pow(0.01, 1/float64(budget)) // reach temp 0.01 at budget
	proposals := make([]int, 0, annealSpeculation)
	for b.len() < budget {
		ns := scratch.neighbors(space, cur.Index)
		proposals = proposals[:0]
		for len(proposals) < annealSpeculation {
			proposals = append(proposals, ns[propRNG.Intn(len(ns))])
		}
		// Predicted-best first (rank is the identity without a ready
		// surrogate): the acceptance scan meets the most promising
		// proposal earliest, so an accepted move abandons (and never pays
		// for) fewer speculative simulations.
		wave := b.limit(sur.rank(proposals), budget-b.len())
		for _, p := range wave {
			b.tag(p, "propose", cur.Index)
		}
		cands, err := b.getBatch(wave)
		if err != nil {
			return nil, err
		}
		for _, cand := range cands {
			score, err := scalarize(cand.Metrics, weights, ref)
			if err != nil {
				return nil, err
			}
			accept := score < curScore
			if !accept && !math.IsInf(score, 1) {
				accept = rng.Float64() < math.Exp((curScore-score)/temp)
			}
			temp *= cooling
			if accept {
				cur, curScore = cand, score
				if curScore < bestScore {
					best, bestScore = cur, curScore
				}
				break // re-speculate from the accepted state
			}
		}
	}
	return &SearchResult{Best: best, BestScore: bestScore, Evaluated: b.all()}, nil
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
	sur := r.newSurrogate(sess, equalWeights(objectives))
	sur.paretoRank()
	b := newEvalBatcher(sess, "screen-refine", sur)
	scratch := newNeighborScratch(space)

	// Screening sample: one wave. With a surrogate, a quarter of the wave
	// evaluates exactly as the training bootstrap; the remaining slots are
	// surrogate-picked from a pool far larger than the wave — the same
	// number of simulations covers the best of surrogatePoolCap
	// candidates instead of a blind uniform sample.
	perm := rng.Perm(space.Size())
	if screen > len(perm) {
		screen = len(perm)
	}
	if sur != nil {
		nBoot := screen / 4
		if nBoot < surrogateMinTrain {
			nBoot = surrogateMinTrain
		}
		if nBoot > screen {
			nBoot = screen
		}
		for _, idx := range perm[:nBoot] {
			b.tag(idx, "screen")
		}
		if _, err := b.getBatch(perm[:nBoot]); err != nil {
			return nil, err
		}
		pool := perm[nBoot:]
		if len(pool) > surrogatePoolCap {
			pool = pool[:surrogatePoolCap]
		}
		picks := sur.screen(pool, screen-nBoot)
		for _, idx := range picks {
			b.tag(idx, "screen")
		}
		if _, err := b.getBatch(picks); err != nil {
			return nil, err
		}
	} else {
		for _, idx := range perm[:screen] {
			b.tag(idx, "screen")
		}
		if _, err := b.getBatch(perm[:screen]); err != nil {
			return nil, err
		}
	}

	for b.len() < budget {
		front, _, err := ParetoSet(Feasible(b.all()), objectives)
		if err != nil {
			return nil, err
		}
		// Refinement ring: every unseen neighbour of every front member,
		// deduplicated, capped at the remaining budget. The surrogate
		// gathers a larger ring (up to surrogatePoolCap) and ranks it, so the
		// budget-capped prefix lands on the predicted-best neighbours
		// instead of whichever front members were enumerated first.
		var ring []int
		inRing := make(map[int]bool)
		remaining := budget - b.len()
		ringCap := remaining
		if sur != nil && ringCap < surrogatePoolCap {
			ringCap = surrogatePoolCap
			front = dedupFrontMetrics(front)
		}
		for _, f := range front {
			for _, n := range scratch.neighbors(space, f.Index) {
				if len(ring) >= ringCap {
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
		ring = sur.rank(ring)
		if len(ring) > remaining {
			ring = ring[:remaining]
		}
		if _, err := b.getBatch(ring); err != nil {
			return nil, err
		}
	}
	return b.all(), nil
}

// referenceProbes is how many random configurations referenceScales
// profiles to establish the scalarization scales.
const referenceProbes = 3

// probeSample profiles n uniformly random configurations as one wave and
// returns their results. It draws exactly one rng.Intn(Size) per probe —
// callers relying on reproducible RNG streams (every scalarized search)
// get the same draws for the same n.
func probeSample(space *Space, b *evalBatcher, rng *stats.RNG, n int) ([]Result, error) {
	probes := make([]int, n)
	for i := range probes {
		probes[i] = rng.Intn(space.Size())
	}
	return b.getBatch(probes)
}

// objectiveScales reduces profiled results to one normalization scale
// per objective: the largest feasible value observed. An objective with
// no positive feasible value — every probe infeasible, or a metric that
// is identically zero across the sample — gets scale 1, so downstream
// divisions are always well-defined.
func objectiveScales(results []Result, objectives []string) (map[string]float64, error) {
	ref := make(map[string]float64, len(objectives))
	for _, obj := range objectives {
		ref[obj] = 0
	}
	for _, res := range results {
		if res.Metrics == nil || !res.Metrics.Feasible() {
			continue
		}
		for _, obj := range objectives {
			v, err := res.Metrics.Objective(obj)
			if err != nil {
				return nil, err
			}
			if v > ref[obj] {
				ref[obj] = v
			}
		}
	}
	for obj, v := range ref {
		if v <= 0 {
			ref[obj] = 1
		}
	}
	return ref, nil
}

// objectiveNames extracts the objective list from scalarization weights.
func objectiveNames(weights []Weighted) []string {
	names := make([]string, len(weights))
	for i, w := range weights {
		names[i] = w.Objective
	}
	return names
}

// referenceScales profiles a few random configurations (one wave) to
// establish the normalization scale per objective for scalarized search.
func referenceScales(space *Space, b *evalBatcher, weights []Weighted, rng *stats.RNG) (map[string]float64, error) {
	results, err := probeSample(space, b, rng, referenceProbes)
	if err != nil {
		return nil, err
	}
	return objectiveScales(results, objectiveNames(weights))
}

func shuffled(rng *stats.RNG, xs []int) []int {
	out := append([]int(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
