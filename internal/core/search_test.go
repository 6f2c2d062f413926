package core

import (
	"slices"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/pareto"
	"dmexplore/internal/profile"
	"dmexplore/internal/stats"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

func searchRunner(t *testing.T) *Runner {
	t.Helper()
	return &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: 2}
}

func TestDigitsRoundTrip(t *testing.T) {
	s := EasyportSpace()
	for _, idx := range []int{0, 1, 17, 100, s.Size() - 1} {
		d := s.digits(idx)
		if got := s.index(d); got != idx {
			t.Fatalf("digits round trip %d -> %v -> %d", idx, d, got)
		}
		for ax, v := range d {
			if v < 0 || v >= len(s.Axes[ax].Options) {
				t.Fatalf("digit %d of index %d out of range", ax, idx)
			}
		}
	}
}

func TestNeighbors(t *testing.T) {
	s := tinySpace() // 2 x 3
	ns := newNeighborScratch(s).neighbors(s, 0)
	// Axis 0 has 1 alternative, axis 1 has 2: three neighbours.
	if len(ns) != 3 {
		t.Fatalf("neighbors %v", ns)
	}
	seen := map[int]bool{}
	for _, n := range ns {
		if n == 0 || n < 0 || n >= s.Size() || seen[n] {
			t.Fatalf("bad neighbour set %v", ns)
		}
		seen[n] = true
		// Hamming distance exactly 1.
		d0, dn := s.digits(0), s.digits(n)
		diff := 0
		for i := range d0 {
			if d0[i] != dn[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("neighbour %d at distance %d", n, diff)
		}
	}
}

func TestNeighborsPreallocated(t *testing.T) {
	// The scratch, sized up front, makes enumerating a neighbourhood
	// allocate nothing at all.
	s := EasyportSpace()
	scratch := newNeighborScratch(s)
	if allocs := testing.AllocsPerRun(100, func() { scratch.neighbors(s, 17) }); allocs != 0 {
		t.Fatalf("scratch neighbors allocates %v times per call, want 0", allocs)
	}
	// The preallocation bound is exact: every configuration has
	// neighborCount neighbours.
	for _, idx := range []int{0, 1, 17, s.Size() - 1} {
		if got := len(scratch.neighbors(s, idx)); got != s.neighborCount() {
			t.Fatalf("index %d: %d neighbours, want %d", idx, got, s.neighborCount())
		}
	}
}

func TestScreenAndRefineApproximatesFront(t *testing.T) {
	r := searchRunner(t)
	space := tinySpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	// Budget = whole space: the approximation must equal the true front.
	results, err := r.ScreenAndRefine(space, objs, 2, space.Size(), 3)
	if err != nil {
		t.Fatal(err)
	}
	approxFront, _, err := ParetoSet(Feasible(results), objs)
	if err != nil {
		t.Fatal(err)
	}
	all, err := r.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	trueFront, _, err := ParetoSet(Feasible(all), objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(approxFront) != len(trueFront) {
		t.Fatalf("approx front %d vs true %d", len(approxFront), len(trueFront))
	}
	for i := range trueFront {
		if approxFront[i].Index != trueFront[i].Index {
			t.Fatalf("front mismatch at %d", i)
		}
	}
}

func TestScreenAndRefineValidation(t *testing.T) {
	r := searchRunner(t)
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	if _, err := r.ScreenAndRefine(tinySpace(), objs, 0, 10, 1); err == nil {
		t.Fatal("zero screen accepted")
	}
	if _, err := r.ScreenAndRefine(tinySpace(), objs, 10, 5, 1); err == nil {
		t.Fatal("budget < screen accepted")
	}
}

// newTestRNG returns a deterministic RNG for grid-operation tests.
func newTestRNG() *stats.RNG { return stats.NewRNG(12345) }

// TestScreenMatchesEvolveOnEasyport pins why screen-and-refine ships
// beside NSGA-II: on EasyportSpace with the default Easyport trace, at
// a 96-simulation budget (a quarter of it screened), its front's
// hypervolume is at least NSGA-II's (population 16) in most of seeds
// 1–8 (6 of 8 when this test was written). The reference point is the
// per-objective maximum of the union of all sixteen fronts, plus 1%.
func TestScreenMatchesEvolveOnEasyport(t *testing.T) {
	gen, err := workload.New("easyport", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	const budget, seeds = 96, 8

	fronts := func(results []Result) []pareto.Point {
		_, pts, err := ParetoSet(Feasible(results), objs)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	var screened, evolved [seeds][]pareto.Point
	var ref [2]float64
	for i := range seeds {
		seed := uint64(i + 1)
		r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Compiled: ct, Workers: 2, Incremental: true}
		sc, err := r.ScreenAndRefine(space, objs, budget/4, budget, seed)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 16, Budget: budget, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		screened[i], evolved[i] = fronts(sc), fronts(ev)
		for _, p := range append(slices.Clone(screened[i]), evolved[i]...) {
			ref[0], ref[1] = max(ref[0], p.Values[0]), max(ref[1], p.Values[1])
		}
	}
	ref[0], ref[1] = 1.01*ref[0], 1.01*ref[1]
	atLeast := 0
	for i := range seeds {
		s, e := pareto.Hypervolume2D(screened[i], ref), pareto.Hypervolume2D(evolved[i], ref)
		if s >= e {
			atLeast++
		}
		t.Logf("seed %d: screen %.6g, NSGA-II %.6g", i+1, s, e)
	}
	if atLeast < 5 {
		t.Fatalf("screen's hypervolume reached NSGA-II's in %d of %d seeds, want at least 5", atLeast, seeds)
	}
}
