package core

import (
	"fmt"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/pareto"
	"dmexplore/internal/profile"
)

func TestEvolveValidation(t *testing.T) {
	r := searchRunner(t)
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	if _, err := r.EvolveIsland(tinySpace(), []string{profile.ObjAccesses}, IslandOptions{}); err == nil {
		t.Fatal("single objective accepted")
	}
	if _, err := r.EvolveIsland(tinySpace(), objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 3, Budget: 100}}); err == nil {
		t.Fatal("odd population accepted")
	}
	if _, err := r.EvolveIsland(tinySpace(), objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 8, Budget: 4}}); err == nil {
		t.Fatal("budget below population accepted")
	}
}

func TestEvolveTinySpaceFindsTrueFront(t *testing.T) {
	r := searchRunner(t)
	space := tinySpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	results, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 4, Budget: 24, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny space (6 configs) with budget 24: everything gets evaluated.
	approx, _, err := ParetoSet(Feasible(results), objs)
	if err != nil {
		t.Fatal(err)
	}
	all, err := r.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	truth, _, err := ParetoSet(Feasible(all), objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) != len(truth) {
		t.Fatalf("front %d vs true %d", len(approx), len(truth))
	}
}

func TestEvolveApproximatesLargeFront(t *testing.T) {
	// On the 640-config Easyport space with a small trace, the
	// evolutionary front's hypervolume must dominate random sampling at
	// the same budget.
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: 4}
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	const budget = 128

	evolved, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 16, Budget: budget, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(evolved) > budget {
		t.Fatalf("evolve used %d > budget %d", len(evolved), budget)
	}
	sampled, err := r.Sample(space, budget, 5)
	if err != nil {
		t.Fatal(err)
	}

	_, ePoints, err := ParetoSet(Feasible(evolved), objs)
	if err != nil {
		t.Fatal(err)
	}
	_, sPoints, err := ParetoSet(Feasible(sampled), objs)
	if err != nil {
		t.Fatal(err)
	}
	ref := [2]float64{}
	for _, pts := range [][]pareto.Point{ePoints, sPoints} {
		for _, p := range pts {
			for d := 0; d < 2; d++ {
				if p.Values[d] > ref[d] {
					ref[d] = p.Values[d]
				}
			}
		}
	}
	ref[0] *= 1.01
	ref[1] *= 1.01
	ehv := pareto.Hypervolume2D(ePoints, ref)
	shv := pareto.Hypervolume2D(sPoints, ref)
	if ehv < shv*0.98 {
		t.Fatalf("evolved hypervolume %.4g clearly below random %.4g", ehv, shv)
	}
}

func TestEvolveDeterministic(t *testing.T) {
	r := searchRunner(t)
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	opts := EvolveOptions{Population: 8, Budget: 40, Seed: 11}
	a, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Index != b[i].Index {
			t.Fatalf("evaluation order differs at %d", i)
		}
	}
}

// TestDecimalLess checks the ranking's tie order: configuration indices
// compare as their decimal strings do, the order pareto.Front gives
// points tagged with fmt.Sprint of each index.
func TestDecimalLess(t *testing.T) {
	xs := []int{0, 1, 2, 7, 9, 10, 11, 19, 20, 99, 100, 101, 123, 640, 1000, 45678, 58319}
	for _, a := range xs {
		for _, b := range xs {
			if got, want := decimalLess(a, b), fmt.Sprint(a) < fmt.Sprint(b); got != want {
				t.Fatalf("decimalLess(%d, %d) = %t, want %t", a, b, got, want)
			}
		}
	}
}

func TestCrossoverAndMutateStayInSpace(t *testing.T) {
	space := EasyportSpace()
	rng := newTestRNG()
	for i := 0; i < 500; i++ {
		a := rng.Intn(space.Size())
		b := rng.Intn(space.Size())
		child := crossover(rng, space, a, b)
		if child < 0 || child >= space.Size() {
			t.Fatalf("crossover escaped: %d", child)
		}
		m := mutate(rng, space, child)
		if m < 0 || m >= space.Size() {
			t.Fatalf("mutation escaped: %d", m)
		}
	}
}
