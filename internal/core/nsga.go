package core

import (
	"fmt"
	"math"
	"sort"

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

// rankAndCrowd computes non-domination ranks (0 = front) and crowding
// distances for the given population members. Infeasible configurations
// rank behind every feasible one.
func rankAndCrowd(b *evalBatcher, pop []int, objectives []string) (map[int]int, map[int]float64, error) {
	ranks := make(map[int]int, len(pop))
	crowd := make(map[int]float64, len(pop))

	var feasible []pareto.Point
	for _, idx := range pop {
		res, _ := b.lookup(idx)
		if res.Metrics == nil || !res.Metrics.Feasible() {
			ranks[idx] = math.MaxInt32 // infeasible: worst rank
			crowd[idx] = 0
			continue
		}
		vals := make([]float64, len(objectives))
		for d, obj := range objectives {
			v, err := res.Metrics.Objective(obj)
			if err != nil {
				return nil, nil, err
			}
			vals[d] = v
		}
		feasible = append(feasible, pareto.Point{Tag: fmt.Sprint(idx), Values: vals})
	}

	// Peel fronts: rank 0 is the Pareto front of the remainder, etc.
	remaining := feasible
	rank := 0
	for len(remaining) > 0 {
		front := pareto.Front(remaining)
		inFront := make(map[string]bool, len(front))
		for _, p := range front {
			inFront[p.Tag] = true
			idx := mustAtoi(p.Tag)
			ranks[idx] = rank
		}
		crowding(front, crowd)
		next := remaining[:0:0]
		for _, p := range remaining {
			if !inFront[p.Tag] {
				next = append(next, p)
			}
		}
		remaining = next
		rank++
	}
	return ranks, crowd, nil
}

// crowding assigns the NSGA-II crowding distance within one front.
func crowding(front []pareto.Point, crowd map[int]float64) {
	if len(front) == 0 {
		return
	}
	dim := len(front[0].Values)
	for _, p := range front {
		crowd[mustAtoi(p.Tag)] = 0
	}
	for d := 0; d < dim; d++ {
		sorted := append([]pareto.Point(nil), front...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Values[d] < sorted[j].Values[d] })
		lo, hi := sorted[0].Values[d], sorted[len(sorted)-1].Values[d]
		crowd[mustAtoi(sorted[0].Tag)] = math.Inf(1)
		crowd[mustAtoi(sorted[len(sorted)-1].Tag)] = math.Inf(1)
		if hi == lo {
			continue
		}
		for i := 1; i < len(sorted)-1; i++ {
			idx := mustAtoi(sorted[i].Tag)
			if !math.IsInf(crowd[idx], 1) {
				crowd[idx] += (sorted[i+1].Values[d] - sorted[i-1].Values[d]) / (hi - lo)
			}
		}
	}
}

// tournament picks the better of two random members (rank, then crowding).
func tournament(rng *stats.RNG, pop []int, ranks map[int]int, crowd map[int]float64) int {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if ranks[a] != ranks[b] {
		if ranks[a] < ranks[b] {
			return a
		}
		return b
	}
	if crowd[a] >= crowd[b] {
		return a
	}
	return b
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

func dedupInts(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func mustAtoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}
