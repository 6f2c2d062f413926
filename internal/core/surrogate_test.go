package core

import (
	"sync"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
)

func TestObjectiveScalesDegenerate(t *testing.T) {
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	mk := func(acc uint64, fp int64, failures uint64) Result {
		return Result{Metrics: &profile.Metrics{
			Accesses: acc, FootprintBytes: fp, Failures: failures,
		}}
	}
	cases := []struct {
		name    string
		results []Result
		want    map[string]float64
	}{
		{"empty sample", nil,
			map[string]float64{profile.ObjAccesses: 1, profile.ObjFootprint: 1}},
		{"all infeasible", []Result{mk(100, 100, 3), mk(200, 50, 1)},
			map[string]float64{profile.ObjAccesses: 1, profile.ObjFootprint: 1}},
		{"identical zero metrics", []Result{mk(0, 0, 0), mk(0, 0, 0), mk(0, 0, 0)},
			map[string]float64{profile.ObjAccesses: 1, profile.ObjFootprint: 1}},
		{"one objective degenerate", []Result{mk(40, 0, 0), mk(90, 0, 0)},
			map[string]float64{profile.ObjAccesses: 90, profile.ObjFootprint: 1}},
		{"normal", []Result{mk(40, 64, 0), mk(90, 32, 0)},
			map[string]float64{profile.ObjAccesses: 90, profile.ObjFootprint: 64}},
	}
	for _, c := range cases {
		got, err := objectiveScales(c.results, objs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for obj, want := range c.want {
			if got[obj] != want {
				t.Errorf("%s: scale[%s] = %v, want %v", c.name, obj, got[obj], want)
			}
		}
	}
	// Scalarizing against a degenerate sample must stay finite: the
	// zero-scale division the clamp exists to prevent.
	scales, err := objectiveScales(nil, objs)
	if err != nil {
		t.Fatal(err)
	}
	m := &profile.Metrics{Accesses: 123, FootprintBytes: 456}
	score, err := scalarize(m, []Weighted{{profile.ObjAccesses, 1}, {profile.ObjFootprint, 1}}, scales)
	if err != nil {
		t.Fatal(err)
	}
	if score != 123+456 {
		t.Fatalf("degenerate-scale score %v, want %v", score, 123+456)
	}
}

// TestSurrogateScreenAndRefine exercises the full surrogate loop on a
// real (small) space: the search must stay within budget, produce a
// feasible front, journal its predictions, count its use in telemetry and
// leave results its accuracy can be read from.
func TestSurrogateScreenAndRefine(t *testing.T) {
	var mu sync.Mutex
	var recs []telemetry.Record
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: 4,
		Telemetry: telemetry.NewCollector(4),
		Surrogate: &SurrogateOptions{},
		Observer: func(res Result) {
			mu.Lock()
			recs = append(recs, res.JournalRecord())
			mu.Unlock()
		},
	}
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	const screen, budget = 24, 96
	results, err := r.ScreenAndRefine(space, objs, screen, budget, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) > budget {
		t.Fatalf("profiled %d > budget %d", len(results), budget)
	}
	front, _, err := ParetoSet(Feasible(results), objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("no feasible front found")
	}
	snap := r.Telemetry.Snapshot()
	if snap.SurrogateTrained == 0 || snap.SurrogatePredictions == 0 || snap.SurrogateScreened == 0 {
		t.Fatalf("surrogate use not counted: %+v", snap)
	}
	predicted, feasiblePredicted := 0, 0
	for _, rec := range recs {
		if len(rec.Predicted) > 0 {
			predicted++
			if rec.Error == "" && rec.Failures == 0 {
				feasiblePredicted++
			}
		}
	}
	if predicted == 0 {
		t.Fatal("no journal record carries surrogate predictions")
	}
	// The bootstrap prefix evaluates before the models are ready, so not
	// every record can carry a prediction.
	if predicted == len(recs) {
		t.Fatal("bootstrap records unexpectedly carry predictions")
	}
	acc := SurrogateAccuracy(results)
	for _, obj := range objs {
		if a, ok := acc[obj]; !ok || a.Pairs != feasiblePredicted {
			t.Fatalf("%s accuracy %+v, want %d pairs (one per feasible predicted record)", obj, a, feasiblePredicted)
		}
	}
}

// TestSurrogateOffLeavesNoTrace pins the oracle contract: with
// Runner.Surrogate nil, no record carries predictions and no surrogate
// telemetry accumulates.
func TestSurrogateOffLeavesNoTrace(t *testing.T) {
	var mu sync.Mutex
	var recs []telemetry.Record
	r := searchRunner(t)
	r.Observer = func(res Result) {
		mu.Lock()
		recs = append(recs, res.JournalRecord())
		mu.Unlock()
	}
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	if _, err := r.ScreenAndRefine(EasyportSpace(), objs, 16, 48, 42); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Predicted != nil {
			t.Fatalf("surrogate-off record %d carries predictions", rec.Index)
		}
	}
}

// TestSurrogateAllStrategies runs every guided strategy with screening on
// and checks the shared invariants: budget respected, a best/front found,
// models actually trained and consulted.
func TestSurrogateAllStrategies(t *testing.T) {
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	weights := []Weighted{{profile.ObjAccesses, 1}, {profile.ObjFootprint, 0.5}}
	const budget = 72

	runs := map[string]func(r *Runner) (int, bool, error){
		"hillclimb": func(r *Runner) (int, bool, error) {
			sr, err := r.HillClimb(space, weights, budget, 17)
			if err != nil {
				return 0, false, err
			}
			return len(sr.Evaluated), sr.Best.Metrics != nil, nil
		},
		"anneal": func(r *Runner) (int, bool, error) {
			sr, err := r.Anneal(space, weights, budget, 17)
			if err != nil {
				return 0, false, err
			}
			return len(sr.Evaluated), sr.Best.Metrics != nil, nil
		},
		"screen": func(r *Runner) (int, bool, error) {
			results, err := r.ScreenAndRefine(space, objs, 16, budget, 17)
			if err != nil {
				return 0, false, err
			}
			front, _, err := ParetoSet(Feasible(results), objs)
			return len(results), len(front) > 0, err
		},
		"evolve": func(r *Runner) (int, bool, error) {
			results, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 8, Budget: budget, Seed: 17}})
			if err != nil {
				return 0, false, err
			}
			front, _, err := ParetoSet(Feasible(results), objs)
			return len(results), len(front) > 0, err
		},
	}
	for name, run := range runs {
		r := searchRunner(t)
		r.Telemetry = telemetry.NewCollector(2)
		r.Surrogate = &SurrogateOptions{}
		evals, found, err := run(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if evals == 0 || evals > budget {
			t.Fatalf("%s: %d evaluations for budget %d", name, evals, budget)
		}
		if !found {
			t.Fatalf("%s: no result found", name)
		}
		snap := r.Telemetry.Snapshot()
		if snap.SurrogateTrained == 0 {
			t.Fatalf("%s: surrogate never trained", name)
		}
		if snap.SurrogatePredictions == 0 {
			t.Fatalf("%s: surrogate never consulted", name)
		}
	}
}

// TestSurrogateWarmStart replays a prior run's journal into a fresh
// search: every valid record must train the models before the first
// wave, so the new run starts ready.
func TestSurrogateWarmStart(t *testing.T) {
	var mu sync.Mutex
	var recs []telemetry.Record
	first := searchRunner(t)
	first.Observer = func(res Result) {
		mu.Lock()
		recs = append(recs, res.JournalRecord())
		mu.Unlock()
	}
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	if _, err := first.ScreenAndRefine(space, objs, 16, 48, 42); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("first run journaled nothing")
	}

	second := searchRunner(t)
	second.Telemetry = telemetry.NewCollector(2)
	second.Surrogate = &SurrogateOptions{WarmStart: recs}
	var secondRecs []telemetry.Record
	second.Observer = func(res Result) {
		mu.Lock()
		secondRecs = append(secondRecs, res.JournalRecord())
		mu.Unlock()
	}
	if _, err := second.ScreenAndRefine(space, objs, 16, 48, 7); err != nil {
		t.Fatal(err)
	}
	if trained := second.Telemetry.Snapshot().SurrogateTrained; trained < uint64(len(recs)) {
		t.Fatalf("trained on %d results, warm start had %d records", trained, len(recs))
	}
	// A warm-started model is past its warm-up before the first wave, so
	// even the bootstrap's fresh evaluations carry predictions.
	for _, rec := range secondRecs {
		if len(rec.Predicted) == 0 {
			t.Fatalf("warm-started run journaled record %d without predictions", rec.Index)
		}
	}
}
