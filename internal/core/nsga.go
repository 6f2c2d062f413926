package core

import (
	"math"
	"slices"
	"sort"
	"strconv"

	"dmexplore/internal/pareto"
	"dmexplore/internal/stats"
)

// Search defaults, read by every front end that starts an NSGA-II
// search (dmexplore -strategy evolve, the service's nsga2 jobs).
const (
	// DefaultPopulation is the population when none is given.
	DefaultPopulation = 32
	// DefaultGenerations sizes the default simulation budget: this many
	// generations' worth of the population.
	DefaultGenerations = 16
	// DefaultMigrationEvery is the island model's generation period
	// between migrations.
	DefaultMigrationEvery = 4
)

// DefaultMigrationK is the default cap on the members an island exports
// per migration: a quarter of its population, at least 1.
func DefaultMigrationK(population int) int { return max(1, population/4) }

// EvolveOptions tune the NSGA-II evolutionary search (EvolveIsland).
type EvolveOptions struct {
	Population int // even, >= 4 (default DefaultPopulation)
	Budget     int // total simulations (default DefaultGenerations generations' worth)
	Seed       uint64
}

func (o EvolveOptions) withDefaults() EvolveOptions {
	if o.Population == 0 {
		o.Population = DefaultPopulation
	}
	if o.Budget == 0 {
		o.Budget = o.Population * DefaultGenerations
	}
	return o
}

// nsgaScratch is one search's ranking scratch, reused by every
// generation: each population member's rank and crowding distance by
// its position in the population, and the objective vectors, fronts and
// orders the ranking works through. Population members are distinct
// configurations (the initial population repeats one only once the
// whole space is in it, and then the search ends before any ranking).
type nsgaScratch struct {
	rank  []int     // by position; math.MaxInt32 for an infeasible member
	crowd []float64 // by position

	vals    []float64      // the feasible members' objective vectors, back to back
	points  []pareto.Point // the members still to rank
	pos     []int          // population position of points[k]
	inFront []bool         // by points index: in the front just peeled
	byObj   byObjective    // crowding's order of one front on one objective
	order   []int          // selectPopulation's order of positions
	sorted  []int          // selectPopulation's members in that order
	seen    map[int]bool   // dedup's set
}

// rankAndCrowd computes non-domination ranks (0 = front) and crowding
// distances for the given population members, by position. Infeasible
// configurations rank behind every feasible one.
func (sc *nsgaScratch) rankAndCrowd(b *evalBatcher, pop []int, objectives []string) error {
	sc.rank = slices.Grow(sc.rank[:0], len(pop))[:len(pop)]
	sc.crowd = slices.Grow(sc.crowd[:0], len(pop))[:len(pop)]
	// Room for every vector up front, so no append moves the ones the
	// points already hold.
	sc.vals = slices.Grow(sc.vals[:0], len(pop)*len(objectives))
	sc.points, sc.pos = sc.points[:0], sc.pos[:0]
	for i, idx := range pop {
		res, _ := b.lookup(idx)
		if res.Metrics == nil || !res.Metrics.Feasible() {
			sc.rank[i], sc.crowd[i] = math.MaxInt32, 0 // infeasible: worst rank
			continue
		}
		start := len(sc.vals)
		for _, obj := range objectives {
			v, err := res.Metrics.Objective(obj)
			if err != nil {
				return err
			}
			sc.vals = append(sc.vals, v)
		}
		sc.points = append(sc.points, pareto.Point{Values: sc.vals[start:len(sc.vals):len(sc.vals)]})
		sc.pos = append(sc.pos, i)
	}

	// Peel fronts: rank 0 is the Pareto front of the remainder, etc.
	// Equal vectors are ordered by their configuration indices' decimal
	// strings, the order pareto.Front gives points tagged with them.
	tie := func(i, j int) bool { return decimalLess(pop[sc.pos[i]], pop[sc.pos[j]]) }
	for rank := 0; len(sc.points) > 0; rank++ {
		front := pareto.FrontIndices(sc.points, tie)
		sc.inFront = slices.Grow(sc.inFront[:0], len(sc.points))[:len(sc.points)]
		clear(sc.inFront)
		for _, k := range front {
			sc.inFront[k] = true
			sc.rank[sc.pos[k]] = rank
		}
		sc.crowding(front)
		next := 0
		for k, p := range sc.points {
			if !sc.inFront[k] {
				sc.points[next], sc.pos[next] = p, sc.pos[k]
				next++
			}
		}
		sc.points, sc.pos = sc.points[:next], sc.pos[:next]
	}
	return nil
}

// crowding assigns the NSGA-II crowding distance within one front, given
// as indices into sc.points in pareto.Front's order.
func (sc *nsgaScratch) crowding(front []int) {
	if len(front) == 0 {
		return
	}
	for _, k := range front {
		sc.crowd[sc.pos[k]] = 0
	}
	o := &sc.byObj
	o.points = sc.points
	for o.d = range len(sc.points[front[0]].Values) {
		o.order = append(o.order[:0], front...)
		sort.Sort(o)
		first, last := o.order[0], o.order[len(o.order)-1]
		lo, hi := o.value(first), o.value(last)
		sc.crowd[sc.pos[first]] = math.Inf(1)
		sc.crowd[sc.pos[last]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for i := 1; i < len(o.order)-1; i++ {
			at := sc.pos[o.order[i]]
			if !math.IsInf(sc.crowd[at], 1) {
				sc.crowd[at] += (o.value(o.order[i+1]) - o.value(o.order[i-1])) / (hi - lo)
			}
		}
	}
}

// byObjective orders indices into points by objective d. It sorts with
// sort.Sort, the algorithm sort.Slice also runs, so tied values land in
// the same order the search has always used.
type byObjective struct {
	points []pareto.Point
	order  []int
	d      int
}

func (o *byObjective) value(k int) float64 { return o.points[k].Values[o.d] }
func (o *byObjective) Len() int            { return len(o.order) }
func (o *byObjective) Less(i, j int) bool  { return o.value(o.order[i]) < o.value(o.order[j]) }
func (o *byObjective) Swap(i, j int)       { o.order[i], o.order[j] = o.order[j], o.order[i] }

// tournament picks the better of two random members (rank, then
// crowding) of the population sc last ranked.
func (sc *nsgaScratch) tournament(rng *stats.RNG, pop []int) int {
	a := rng.Intn(len(pop))
	b := rng.Intn(len(pop))
	if sc.rank[a] != sc.rank[b] {
		if sc.rank[a] < sc.rank[b] {
			return pop[a]
		}
		return pop[b]
	}
	if sc.crowd[a] >= sc.crowd[b] {
		return pop[a]
	}
	return pop[b]
}

// crossover mixes two genomes axis-wise (uniform crossover).
func crossover(rng *stats.RNG, space *Space, a, b int) int {
	da, db := space.digits(a), space.digits(b)
	child := make([]int, len(da))
	for i := range child {
		if rng.Bool(0.5) {
			child[i] = da[i]
		} else {
			child[i] = db[i]
		}
	}
	return space.index(child)
}

// mutate re-rolls each axis with probability 1/axes.
func mutate(rng *stats.RNG, space *Space, idx int) int {
	rate := 1 / float64(len(space.Axes))
	d := space.digits(idx)
	for ax := range d {
		if rng.Bool(rate) {
			d[ax] = rng.Intn(len(space.Axes[ax].Options))
		}
	}
	return space.index(d)
}

// dedup drops repeated values from xs in place, keeping each first
// occurrence in order, and returns the shortened slice.
func (sc *nsgaScratch) dedup(xs []int) []int {
	if sc.seen == nil {
		sc.seen = make(map[int]bool, len(xs))
	}
	clear(sc.seen)
	out := xs[:0]
	for _, x := range xs {
		if !sc.seen[x] {
			sc.seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// decimalLess orders two non-negative integers as their decimal strings
// order.
func decimalLess(a, b int) bool {
	var x, y [20]byte
	return string(strconv.AppendInt(x[:0], int64(a), 10)) < string(strconv.AppendInt(y[:0], int64(b), 10))
}
