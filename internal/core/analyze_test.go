package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/pareto"
	"dmexplore/internal/profile"
	"dmexplore/internal/stats"
)

// frontIndices returns the configuration indices ParetoSet keeps, sorted.
func frontIndices(t *testing.T, results []Result, objectives []string) []int {
	t.Helper()
	front, points, err := ParetoSet(results, objectives)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < len(front) {
		t.Fatalf("%d front points for %d front results", len(points), len(front))
	}
	idx := make([]int, len(front))
	for i, r := range front {
		idx[i] = r.Index
	}
	slices.Sort(idx)
	return idx
}

// remap returns results with every Metrics replaced by f's copy of it.
func remap(results []Result, f func(m *profile.Metrics)) []Result {
	out := slices.Clone(results)
	for i := range out {
		m := *out[i].Metrics
		f(&m)
		out[i].Metrics = &m
	}
	return out
}

// TestParetoSetMetamorphic holds the front to the invariances of
// dominance: the same configurations stay Pareto-optimal when an
// objective is rescaled by a positive constant or by a strictly
// monotone map, and when the objectives are listed in another order.
// The maps are exact in float64, so no two values collapse. It runs on
// a real VTC sweep and on random vectors with many ties, with two, three
// and four objectives (the 2-D sweep and the N-D filter).
func TestParetoSetMetamorphic(t *testing.T) {
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: 2}
	sweep, err := r.Explore(VTCSpace())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	random := make([]Result, 400)
	for i := range random {
		random[i] = Result{Index: i, Metrics: &profile.Metrics{
			Accesses:       uint64(rng.Intn(20)),
			FootprintBytes: int64(rng.Intn(20)),
			EnergyNJ:       float64(rng.Intn(20)) / 8,
			Cycles:         uint64(rng.Intn(20)),
		}}
	}
	maps := map[string]func(m *profile.Metrics){
		"accesses×3":        func(m *profile.Metrics) { m.Accesses *= 3 },
		"footprint²+fp":     func(m *profile.Metrics) { m.FootprintBytes = m.FootprintBytes*m.FootprintBytes + m.FootprintBytes },
		"energy×0.5":        func(m *profile.Metrics) { m.EnergyNJ *= 0.5 },
		"cycles×7+11":       func(m *profile.Metrics) { m.Cycles = m.Cycles*7 + 11 },
		"all at once":       func(m *profile.Metrics) { m.Accesses *= 3; m.EnergyNJ *= 0.5; m.Cycles = m.Cycles*7 + 11 },
		"energy×1024, fp+1": func(m *profile.Metrics) { m.EnergyNJ *= 1024; m.FootprintBytes++ },
	}
	objectiveSets := [][]string{
		{profile.ObjAccesses, profile.ObjFootprint},
		{profile.ObjEnergy, profile.ObjCycles},
		{profile.ObjAccesses, profile.ObjFootprint, profile.ObjEnergy},
		{profile.ObjCycles, profile.ObjEnergy, profile.ObjFootprint, profile.ObjAccesses},
	}
	for name, results := range map[string][]Result{"vtc sweep": Feasible(sweep), "random": random} {
		for _, objs := range objectiveSets {
			want := frontIndices(t, results, objs)
			if len(want) == 0 {
				t.Fatalf("%s %v: empty front", name, objs)
			}
			for mapName, f := range maps {
				if got := frontIndices(t, remap(results, f), objs); !slices.Equal(got, want) {
					t.Errorf("%s %v under %s: front %v, want %v", name, objs, mapName, got, want)
				}
			}
			for shift := 1; shift < len(objs); shift++ {
				rotated := append(slices.Clone(objs[shift:]), objs[:shift]...)
				if got := frontIndices(t, results, rotated); !slices.Equal(got, want) {
					t.Errorf("%s %v reordered as %v: front %v, want %v", name, objs, rotated, got, want)
				}
			}
			reversed := slices.Clone(objs)
			slices.Reverse(reversed)
			if got := frontIndices(t, results, reversed); !slices.Equal(got, want) {
				t.Errorf("%s %v reversed: front %v, want %v", name, objs, got, want)
			}
		}
	}
}

// referenceParetoSet is ParetoSet as it was built on pareto.Front with
// string tags and a map by tag, the reference its index-based form must
// match result for result and point for point.
func referenceParetoSet(results []Result, objectives []string) ([]Result, []pareto.Point) {
	byTag := make(map[string]Result, len(results))
	points := make([]pareto.Point, 0, len(results))
	for _, r := range results {
		if r.Metrics == nil {
			continue
		}
		vals := make([]float64, len(objectives))
		for d, obj := range objectives {
			vals[d], _ = r.Metrics.Objective(obj)
		}
		tag := fmt.Sprintf("%d", r.Index)
		byTag[tag] = r
		points = append(points, pareto.Point{Tag: tag, Values: vals})
	}
	front := pareto.Front(points)
	var out []Result
	seen := make(map[string]bool, len(front))
	for _, p := range front {
		if seen[p.Tag] {
			continue
		}
		seen[p.Tag] = true
		out = append(out, byTag[p.Tag])
	}
	sort.Slice(out, func(i, j int) bool {
		vi, _ := out[i].Metrics.Objective(objectives[0])
		vj, _ := out[j].Metrics.Objective(objectives[0])
		if vi != vj {
			return vi < vj
		}
		return out[i].Index < out[j].Index
	})
	return out, front
}

// TestParetoSetMatchesReference compares ParetoSet with the reference on
// random results with many equal vectors, indices past 100 (whose tags
// order differently from the numbers), results without metrics and
// configurations listed twice.
func TestParetoSetMatchesReference(t *testing.T) {
	rng := stats.NewRNG(11)
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(300)
		indices := rng.Perm(1000)
		results := make([]Result, 0, n+10)
		for i := 0; i < n; i++ {
			r := Result{Index: indices[i]}
			if rng.Intn(20) > 0 {
				r.Metrics = &profile.Metrics{
					Accesses:       uint64(rng.Intn(8)),
					FootprintBytes: int64(rng.Intn(8)),
					EnergyNJ:       float64(rng.Intn(8)),
					Cycles:         uint64(rng.Intn(8)),
				}
			}
			results = append(results, r)
		}
		for i := 0; i < 5 && i < n; i++ { // the same configuration again
			results = append(results, results[rng.Intn(n)])
		}
		objs := []string{profile.ObjAccesses, profile.ObjFootprint, profile.ObjEnergy, profile.ObjCycles}[:2+iter%3]
		got, gotPts, err := ParetoSet(results, objs)
		if err != nil {
			t.Fatal(err)
		}
		want, wantPts := referenceParetoSet(results, objs)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d front results, reference %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i].Index || got[i].Metrics != want[i].Metrics {
				t.Fatalf("iter %d: front result %d is %d, reference %d", iter, i, got[i].Index, want[i].Index)
			}
		}
		if len(gotPts) != len(wantPts) {
			t.Fatalf("iter %d: %d front points, reference %d", iter, len(gotPts), len(wantPts))
		}
		for i := range gotPts {
			if gotPts[i].Tag != wantPts[i].Tag || !slices.Equal(gotPts[i].Values, wantPts[i].Values) {
				t.Fatalf("iter %d: front point %d is %+v, reference %+v", iter, i, gotPts[i], wantPts[i])
			}
		}
	}
}
