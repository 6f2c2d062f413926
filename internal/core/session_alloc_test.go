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
	if _, err := s.Eval([]int{first}, nil, nil); err != nil {
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
		res, err := s.Eval(rest[next:next+1], nil, nil)
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
	resA, err := s.Eval([]int{a}, nil, nil)
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
		if _, err := s.Eval([]int{b}, nil, nil); err != nil {
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
	e, ok := s.parts.get(partitionKey(cfgA))
	if !ok || e.part == nil {
		t.Fatalf("configuration %d's partition is not cached", a)
	}
	if !reflect.DeepEqual(e.part, wantPart) {
		t.Errorf("configuration %d's cached partition changed", a)
	}
}
