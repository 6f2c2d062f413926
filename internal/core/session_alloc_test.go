package core

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// vtcCompiled compiles a small VTC trace.
func vtcCompiled(t *testing.T) *trace.Compiled {
	t.Helper()
	p := workload.DefaultVTCParams()
	p.Tiles = 12
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// Allocations of a full-replay evaluation in a warm session, and of the
// wave that carries it.
const (
	// The configuration's label, the *Metrics, its PerLayer slice and
	// the memo key, allocated once per distinct configuration.
	sessionEvalAllocs = 4
	// The wave's results, its label slots and its WaitGroup.
	sessionWaveAllocs = 3
)

// TestWarmSessionAllocs holds a session's evaluation to its result: a
// one-worker session, on a Replayer warm from an earlier session,
// evaluates every VTCSpace configuration with exactly sessionEvalAllocs
// allocations. The configuration is materialized into the worker's
// scratch and keyed by its ID bytes; neither allocates.
func TestWarmSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	ct := vtcCompiled(t)
	space := VTCSpace()
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Compiled: ct, Workers: 1}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := r.Explore(space); err != nil { // the warm-up session
		t.Fatal(err)
	}
	s, err := r.NewSession(space)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The first configuration has the longest ID and the most fixed
	// pools, so the worker's scratch reaches its final size on it.
	first, longest := 0, 0
	for i := 0; i < space.Size(); i++ {
		cfg, _, err := space.Config(i)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(cfg.ID()); n > longest {
			first, longest = i, n
		}
	}
	if _, err := s.Eval([]int{first}, nil); err != nil {
		t.Fatal(err)
	}
	var rest []int
	for i := 0; i < space.Size(); i++ {
		if i != first {
			rest = append(rest, i)
		}
	}
	next := 0
	got := testing.AllocsPerRun(len(rest)-1, func() {
		res, err := s.Eval(rest[next:next+1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].MemoHit {
			t.Fatalf("configuration %d: a memo hit in a fresh session", rest[next])
		}
		next++
	})
	if want := float64(sessionEvalAllocs + sessionWaveAllocs); got != want {
		t.Errorf("a one-configuration wave allocates %.3f times, want %.0f (%d per evaluation, %d per wave)",
			got, want, sessionEvalAllocs, sessionWaveAllocs)
	}
}

// Allocations of an incremental evaluation, by the tier that served it.
// On a Replayer warm from an earlier session, each tier allocates only
// its results and the cache entries it claims.
const (
	// A composition from the pool-run memo allocates what a full replay
	// does: the label, the *Metrics, its PerLayer slice and the memo key.
	composeEvalAllocs = sessionEvalAllocs
	// A pool replay adds its PoolRun (the struct, its change points and
	// its layer counters) and the pool-run memo entry it claims (the key
	// string, the entry and its recency node).
	poolReplayEvalAllocs = composeEvalAllocs + 3 + 3
	// A pool replay whose pool fails an allocation also keeps the
	// failure flags.
	poolFailureAllocs = 1
	// A partition build adds its Partition (the struct, its op
	// positions, gap-maximum change points and layer counters) and the
	// partition cache entry it claims, made like the pool-run memo's, to
	// whichever tier then serves the evaluation.
	partitionBuildAllocs = 4 + 3
)

// TestWarmIncrementalAllocs holds a warm incremental session to its
// results: after one incremental session over EasyportSpace has closed,
// a second one-worker session evaluates every configuration, partition
// builds and pool replays included, and each evaluation allocates
// exactly what its tier's constant names, on top of its wave's. The
// Replayer's recording buffers grew in the first session, so no build
// grows them again. As in TestWarmSessionAllocs, the configuration with
// the most fixed pools goes first, unmeasured, to size the worker's
// scratch.
func TestWarmIncrementalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	r := easyportRunner(t, true)
	r.Workers = 1
	space := EasyportSpace()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := r.Explore(space); err != nil { // the warm-up session
		t.Fatal(err)
	}
	s, err := r.NewSession(space)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, most := 0, -1
	for i := 0; i < space.Size(); i++ {
		cfg, _, err := space.Config(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(cfg.Fixed) > most {
			first, most = i, len(cfg.Fixed)
		}
	}
	if _, err := s.Eval([]int{first}, nil); err != nil {
		t.Fatal(err)
	}
	tiers := map[string]int{}
	for i := 0; i < space.Size(); i++ {
		if i == first {
			continue
		}
		parts, _, _ := s.parts.stats()
		runs, _, _ := s.runs.stats()
		var res []Result
		calls := 0
		got := testing.AllocsPerRun(1, func() {
			if calls++; calls == 1 {
				return // AllocsPerRun's warm-up call
			}
			if res, err = s.Eval([]int{i}, nil); err != nil {
				t.Fatal(err)
			}
		})
		builtParts, _, _ := s.parts.stats()
		builtRuns, _, _ := s.runs.stats()
		tier, want := "full replay", sessionEvalAllocs
		switch {
		case res[0].MemoHit:
			t.Fatalf("configuration %d: a memo hit in a fresh session", i)
		case res[0].Composed:
			tier, want = "compose", composeEvalAllocs
		case builtRuns > runs:
			tier, want = "pool replay", poolReplayEvalAllocs
			if cachedPoolRun(t, s, i).Failures() > 0 {
				tier, want = "failing pool replay", poolReplayEvalAllocs+poolFailureAllocs
			}
		}
		if builtParts > parts {
			tier += " after a partition build"
			want += partitionBuildAllocs
		}
		tiers[tier]++
		if want += sessionWaveAllocs; got != float64(want) {
			t.Errorf("configuration %d (%s) allocates %.0f times, want %d", i, tier, got, want)
		}
	}
	t.Logf("tiers: %v", tiers)
	if tiers["compose"] == 0 || tiers["pool replay"] == 0 || tiers["failing pool replay"] == 0 ||
		tiers["pool replay after a partition build"] == 0 {
		t.Errorf("the sweep misses an incremental tier: %v", tiers)
	}
}

// cachedPoolRun returns the pool run s's caches hold for configuration
// i, failing the test when either cache misses.
func cachedPoolRun(t *testing.T, s *EvalSession, i int) *profile.PoolRun {
	t.Helper()
	cfg, _, err := s.space.Config(i)
	if err != nil {
		t.Fatal(err)
	}
	miss := func() (*profile.PoolRun, bool) { return nil, false }
	part, ok := s.parts.get(appendPartitionKey(nil, &cfg), func() (*profile.Partition, bool) { return nil, false })
	if !ok {
		t.Fatalf("configuration %d: no cached partition", i)
	}
	run, ok := s.runs.get(appendPoolRunKey(nil, part.OpsHash(), part.Ops(), cfg.General), miss)
	if !ok {
		t.Fatalf("configuration %d: no cached pool run", i)
	}
	return run
}

// TestScratchReuseKeepsEarlierResults evaluates configuration B after A
// on the one worker of an incremental session, B with other fixed pools
// than A. B is materialized into the scratch configuration A was, so A's
// result, labels and cached partition would change if any of them
// aliased that scratch. They must equal fresh computations of A.
func TestScratchReuseKeepsEarlierResults(t *testing.T) {
	ct := vtcCompiled(t)
	h := memhier.EmbeddedSoC()
	space := VTCSpace()
	r := &Runner{Hierarchy: h, Compiled: ct, Workers: 1, Incremental: true}
	s, err := r.NewSession(space)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const a = 287 // dnodes@sp+d16: two scratchpad pools
	cfgA, labelsA, err := space.Config(a)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := s.Eval([]int{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b := 72; b < 216; b += 13 { // one pool, in DRAM or on the scratchpad
		cfgB, _, err := space.Config(b)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(cfgB.Fixed, cfgA.Fixed) {
			t.Fatalf("configuration %d shares %d's fixed pools", b, a)
		}
		if _, err := s.Eval([]int{b}, nil); err != nil {
			t.Fatal(err)
		}
	}

	rep := profile.NewReplayer()
	want, err := rep.Run(ct, cfgA, h, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA[0].Metrics, want) {
		t.Errorf("configuration %d's metrics changed: %+v, fresh replay %+v", a, resA[0].Metrics, want)
	}
	if !reflect.DeepEqual(resA[0].Labels, labelsA) {
		t.Errorf("configuration %d's labels changed: %v, want %v", a, resA[0].Labels, labelsA)
	}
	wantPart, err := rep.Partition(ct, cfgA, h)
	if err != nil {
		t.Fatal(err)
	}
	part, ok := s.parts.get(appendPartitionKey(nil, &cfgA), func() (*profile.Partition, bool) {
		return nil, false // not cached: fail the lookup
	})
	if !ok {
		t.Fatalf("configuration %d's partition is not cached", a)
	}
	if !reflect.DeepEqual(part, wantPart) {
		t.Errorf("configuration %d's cached partition changed", a)
	}
}
