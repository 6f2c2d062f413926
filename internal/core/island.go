package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dmexplore/internal/stats"
)

// Island-model NSGA-II. Each island runs the same generation loop over
// its own seed-split RNG; every MigrationEvery generations it exports its
// current local Pareto front through the Migrate hook and absorbs the
// immigrants the hook returns (in the service, the coordinator merges
// every island's export with pareto.Front and hands the global elite
// back). With no hook and Island 0 the loop is the serial search — the
// bit-identity contract the distributed determinism tests pin.

// IslandMember is one exported front member: the configuration index and
// its objective vector in the search's objective order. The coordinator
// merges members from every island with the O(n·f) pareto front scan.
type IslandMember struct {
	Index  int       `json:"index"`
	Values []float64 `json:"values"`
}

// MigrationHook exchanges front members with the coordinator at one
// migration point: gen is the island's generation counter, front its
// current local Pareto elite (rank 0, best-crowded first). The returned
// indices are the immigrants to absorb; the call may block until every
// island in the job reaches the same generation (the coordinator's
// barrier). Returning an empty slice is a valid outcome (the merged
// front contained nothing new for this island).
type MigrationHook func(gen int, front []IslandMember) ([]int, error)

// IslandOptions tune one island of an island-model NSGA-II search.
type IslandOptions struct {
	EvolveOptions

	// Island is this island's 0-based ID. Island 0 uses Seed unchanged —
	// a 1-island run is bit-identical to the serial walk — and
	// island i > 0 derives its RNG stream with IslandSeed.
	Island int

	// MigrationEvery is the generation period between Migrate calls
	// (default DefaultMigrationEvery when a hook is set; 0 with no hook).
	MigrationEvery int

	// MigrationK caps the members exported per exchange (default
	// DefaultMigrationK).
	MigrationK int

	// Migrate, when non-nil, is called at every migration point. Nil
	// disables migration entirely (the serial search).
	Migrate MigrationHook

	// OnResult, when non-nil, receives every fresh successful evaluation
	// in batcher request order, on the island's coordinating goroutine —
	// the worker's streaming hook. Unlike Runner.Observer it carries the
	// island's identity by construction and its order is deterministic
	// at any session worker count.
	OnResult func(Result)
}

func (o IslandOptions) withIslandDefaults() IslandOptions {
	o.EvolveOptions = o.EvolveOptions.withDefaults()
	if o.Migrate != nil && o.MigrationEvery <= 0 {
		o.MigrationEvery = DefaultMigrationEvery
	}
	if o.MigrationK <= 0 {
		o.MigrationK = DefaultMigrationK(o.Population)
	}
	return o
}

// IslandSeed derives island i's RNG seed from the job seed. Island 0
// inherits the seed unchanged (the 1-island bit-identity contract);
// higher islands get a splitmix64-style finalized stream so sibling
// populations are decorrelated but still a pure function of (seed, i).
func IslandSeed(seed uint64, island int) uint64 {
	if island <= 0 {
		return seed
	}
	z := seed + 0x9e3779b97f4a7c15*uint64(island)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// EvolveIsland approximates the Pareto front with an NSGA-II-style
// evolutionary search over the axis grid: a population of configurations
// evolves under non-dominated sorting and crowding-distance selection,
// with uniform crossover and per-axis mutation. For spaces far beyond
// exhaustive reach (the full 64,800-point product and larger) this finds
// near-complete fronts within a few thousand simulations. Returns every
// configuration profiled during the run (deduplicated); callers extract
// the front with ParetoSet.
//
// Evaluation is generation-batched: the initial population and every
// offspring generation are profiled as one wave across the runner's full
// worker pool (duplicates and already-profiled genomes deduplicated by
// the batcher). All randomness stays on the coordinating goroutine, so a
// given seed yields the identical run for any worker count.
//
// With zero-value island fields (IslandOptions{EvolveOptions: …}) this
// is the serial search: island 0, no migration. Otherwise it runs one
// island of an island-model search in its own session; see
// EvolveIslandSession for the shared-session form the distributed
// workers use.
func (r *Runner) EvolveIsland(space *Space, objectives []string, opts IslandOptions) ([]Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	sess, err := r.NewSession(space)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return r.EvolveIslandSession(sess, space, objectives, opts)
}

// EvolveIslandSession runs one island of an island-model NSGA-II search
// over an existing session (which it does not close). A worker hosting
// several islands of one job runs each as a goroutine over one shared
// session, so the islands multiplex one bounded simulation pool and one
// memo — sharing costs nothing in determinism because every served
// result is exact.
func (r *Runner) EvolveIslandSession(sess *EvalSession, space *Space, objectives []string, opts IslandOptions) ([]Result, error) {
	if len(objectives) < 2 {
		return nil, fmt.Errorf("core: evolve needs at least two objectives")
	}
	opts = opts.withIslandDefaults()
	if opts.Population < 4 || opts.Population%2 != 0 {
		return nil, fmt.Errorf("core: population %d must be an even number >= 4", opts.Population)
	}
	if opts.Budget < opts.Population {
		return nil, fmt.Errorf("core: budget %d below population %d", opts.Budget, opts.Population)
	}
	if opts.Island < 0 {
		return nil, fmt.Errorf("core: island %d must be >= 0", opts.Island)
	}

	rng := stats.NewRNG(IslandSeed(opts.Seed, opts.Island))
	batcher := newEvalBatcher(sess, "nsga2")
	batcher.onResult = opts.OnResult

	// Initial population: uniform random genomes, one evaluation wave.
	pop := make([]int, 0, opts.Population)
	seen := make(map[int]bool)
	for len(pop) < opts.Population {
		idx := rng.Intn(space.Size())
		if seen[idx] && len(seen) < space.Size() {
			continue
		}
		seen[idx] = true
		pop = append(pop, idx)
	}
	for _, idx := range pop {
		batcher.tag(idx, "seed")
	}
	if _, err := batcher.getBatch(pop); err != nil {
		return nil, err
	}

	var sc nsgaScratch
	var err error
	gen := 0
	dryGenerations := 0
	for batcher.len() < opts.Budget && batcher.len() < space.Size() {
		evalsBefore := batcher.len()
		gen++
		// Offspring via binary tournaments, crossover, mutation.
		if err := sc.rankAndCrowd(batcher, pop, objectives); err != nil {
			return nil, err
		}
		remaining := opts.Budget - batcher.len()
		offspring := make([]int, 0, opts.Population)
		newEvals := 0
		for len(offspring) < opts.Population && newEvals < remaining {
			a := sc.tournament(rng, pop)
			b := sc.tournament(rng, pop)
			child := crossover(rng, space, a, b)
			child = mutate(rng, space, child)
			if !batcher.has(child) {
				newEvals++
			}
			batcher.tag(child, "crossover", a, b)
			offspring = append(offspring, child)
		}
		// One wave for the whole generation — including offspring that
		// environmental selection will discard; they still join the
		// result set and the journal.
		if _, err := batcher.getBatch(offspring); err != nil {
			return nil, err
		}

		// Environmental selection over parents + offspring.
		pop, err = sc.selectPopulation(batcher, append(append([]int(nil), pop...), offspring...), objectives, opts.Population)
		if err != nil {
			return nil, err
		}

		// Migration point: export the local elite, absorb the hook's
		// immigrants, and re-select. With no hook the branch is inert —
		// no RNG draws, no evaluations — so the serial walk is untouched.
		if opts.Migrate != nil && opts.MigrationEvery > 0 && gen%opts.MigrationEvery == 0 {
			front, err := sc.islandFront(batcher, pop, objectives, opts.MigrationK)
			if err != nil {
				return nil, err
			}
			imm, err := opts.Migrate(gen, front)
			if err != nil {
				return nil, err
			}
			imm = sc.dedup(slices.Clone(imm))
			valid := imm[:0]
			for _, m := range imm {
				if m >= 0 && m < space.Size() {
					valid = append(valid, m)
				}
			}
			// Immigrants count toward the island's budget like any other
			// candidate; cap the wave at what remains.
			imm = batcher.limit(valid, opts.Budget-batcher.len())
			if len(imm) > 0 {
				for _, m := range imm {
					batcher.tag(m, "migrant")
				}
				if _, err := batcher.getBatch(imm); err != nil {
					return nil, err
				}
				pop, err = sc.selectPopulation(batcher, append(append([]int(nil), pop...), imm...), objectives, opts.Population)
				if err != nil {
					return nil, err
				}
			}
		}

		if batcher.len() == evalsBefore {
			// No unseen configuration this generation: converged (or a
			// small space is nearly saturated). Allow a few dry
			// generations before giving up — mutation may still escape.
			dryGenerations++
			if dryGenerations >= 3 {
				break
			}
		} else {
			dryGenerations = 0
		}
	}
	return batcher.all(), nil
}

// selectPopulation is NSGA-II environmental selection: dedup the union,
// sort by (rank, crowding) and truncate to size. It reorders union, which
// the caller hands over, and returns its prefix.
func (sc *nsgaScratch) selectPopulation(b *evalBatcher, union []int, objectives []string, size int) ([]int, error) {
	union = sc.dedup(union)
	if err := sc.rankAndCrowd(b, union, objectives); err != nil {
		return nil, err
	}
	sc.order = sc.order[:0]
	for i := range union {
		sc.order = append(sc.order, i)
	}
	sort.SliceStable(sc.order, func(x, y int) bool {
		i, j := sc.order[x], sc.order[y]
		if sc.rank[i] != sc.rank[j] {
			return sc.rank[i] < sc.rank[j]
		}
		return sc.crowd[i] > sc.crowd[j]
	})
	sc.sorted = sc.sorted[:0]
	for _, i := range sc.order {
		sc.sorted = append(sc.sorted, union[i])
	}
	return union[:copy(union[:min(len(union), size)], sc.sorted)], nil
}

// islandFront extracts the island's current elite for export: the rank-0
// members of pop, best crowding first (ties by index), capped at k, each
// carrying its objective vector. Deterministic given pop and the
// batcher's results.
func (sc *nsgaScratch) islandFront(b *evalBatcher, pop []int, objectives []string, k int) ([]IslandMember, error) {
	if err := sc.rankAndCrowd(b, pop, objectives); err != nil {
		return nil, err
	}
	var elite []int
	for i := range pop {
		if sc.rank[i] == 0 {
			elite = append(elite, i)
		}
	}
	sort.SliceStable(elite, func(x, y int) bool {
		i, j := elite[x], elite[y]
		if sc.crowd[i] != sc.crowd[j] {
			return sc.crowd[i] > sc.crowd[j]
		}
		return pop[i] < pop[j]
	})
	if len(elite) > k {
		elite = elite[:k]
	}
	for n, i := range elite {
		elite[n] = pop[i]
	}
	out := make([]IslandMember, 0, len(elite))
	for _, idx := range elite {
		res, ok := b.lookup(idx)
		if !ok || res.Metrics == nil {
			continue
		}
		vals := make([]float64, len(objectives))
		skip := false
		for d, obj := range objectives {
			v, err := res.Metrics.Objective(obj)
			if err != nil {
				return nil, err
			}
			if math.IsNaN(v) {
				skip = true
				break
			}
			vals[d] = v
		}
		if skip {
			continue
		}
		out = append(out, IslandMember{Index: idx, Values: vals})
	}
	return out, nil
}
