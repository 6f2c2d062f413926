package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// easyportRunner returns a Runner over a scaled-down easyport trace —
// the workload whose spaces carry fixed-pool axes, so guided searches
// cross partition signatures while walking general-pool axes.
func easyportRunner(t *testing.T, incremental bool) *Runner {
	t.Helper()
	p := workload.DefaultEasyportParams()
	p.Packets = 300
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	return &Runner{
		Hierarchy:   memhier.EmbeddedSoC(),
		Trace:       tr,
		Compiled:    ct,
		Workers:     4,
		Incremental: incremental,
	}
}

// assertResultsIdentical compares two strategy runs field by field,
// requiring bit-identical metrics (the incremental path's contract).
// Bookkeeping that legitimately differs between the paths — Duration,
// Incremental, EventsSkipped — is excluded.
func assertResultsIdentical(t *testing.T, strategy string, full, inc []Result) {
	t.Helper()
	if len(full) != len(inc) {
		t.Fatalf("%s: %d full results vs %d incremental", strategy, len(full), len(inc))
	}
	for i := range full {
		f, g := full[i], inc[i]
		if f.Index != g.Index {
			t.Fatalf("%s: result %d evaluated config %d full vs %d incremental — the walks diverged",
				strategy, i, f.Index, g.Index)
		}
		if (f.Err == nil) != (g.Err == nil) {
			t.Fatalf("%s: config %d: err %v vs %v", strategy, f.Index, f.Err, g.Err)
		}
		if f.Metrics == nil || g.Metrics == nil {
			if f.Metrics != g.Metrics {
				t.Fatalf("%s: config %d: one path missing metrics", strategy, f.Index)
			}
			continue
		}
		fm, gm := f.Metrics, g.Metrics
		if math.Float64bits(fm.EnergyNJ) != math.Float64bits(gm.EnergyNJ) {
			t.Errorf("%s: config %d: energy bits %v vs %v", strategy, f.Index, fm.EnergyNJ, gm.EnergyNJ)
		}
		if fm.Accesses != gm.Accesses || fm.FootprintBytes != gm.FootprintBytes ||
			fm.Cycles != gm.Cycles || fm.Mallocs != gm.Mallocs || fm.Frees != gm.Frees ||
			fm.Failures != gm.Failures || fm.PeakRequestedBytes != gm.PeakRequestedBytes {
			t.Errorf("%s: config %d: headline metrics diverge\n  full %+v\n  incr %+v",
				strategy, f.Index, fm, gm)
		}
		if len(fm.PerLayer) != len(gm.PerLayer) {
			t.Fatalf("%s: config %d: layer count diverges", strategy, f.Index)
		}
		for l := range fm.PerLayer {
			if fm.PerLayer[l] != gm.PerLayer[l] {
				t.Errorf("%s: config %d layer %s: %+v vs %+v", strategy, f.Index,
					fm.PerLayer[l].Name, fm.PerLayer[l], gm.PerLayer[l])
			}
		}
	}
}

// countIncremental returns how many results the partial path served.
func countIncremental(rs []Result) int {
	n := 0
	for _, r := range rs {
		if r.Incremental {
			n++
		}
	}
	return n
}

// TestIncrementalEquivalenceAcrossStrategies runs both guided
// strategies with and without incremental re-evaluation and requires the
// exact same walk and bit-identical metrics — Runner.Incremental must be
// a pure performance switch.
func TestIncrementalEquivalenceAcrossStrategies(t *testing.T) {
	space := EasyportSpace()
	objectives := []string{"accesses", "footprint"}

	servedPartial := 0
	for _, seed := range []uint64{1, 7} {
		run := func(incremental bool, strategy string) []Result {
			r := easyportRunner(t, incremental)
			switch strategy {
			case "evolve":
				rs, err := r.EvolveIsland(space, objectives, IslandOptions{EvolveOptions: EvolveOptions{
					Population: 8, Budget: 48, Seed: seed,
				}})
				if err != nil {
					t.Fatalf("evolve seed %d: %v", seed, err)
				}
				return rs
			case "screen":
				rs, err := r.ScreenAndRefine(space, objectives, 16, 48, seed)
				if err != nil {
					t.Fatalf("screen seed %d: %v", seed, err)
				}
				return rs
			}
			t.Fatalf("unknown strategy %q", strategy)
			return nil
		}
		for _, strategy := range []string{"evolve", "screen"} {
			full := run(false, strategy)
			inc := run(true, strategy)
			assertResultsIdentical(t, strategy, full, inc)
			if n := countIncremental(full); n != 0 {
				t.Errorf("%s seed %d: full run marked %d results incremental", strategy, seed, n)
			}
			servedPartial += countIncremental(inc)
		}
	}
	if servedPartial == 0 {
		t.Fatal("incremental runs never took the partial path")
	}
	t.Logf("partial path served %d evaluations across strategies and seeds", servedPartial)
}

// countComposed returns how many results the pool-run memo composed
// without any simulation.
func countComposed(rs []Result) int {
	n := 0
	for _, r := range rs {
		if r.Composed {
			n++
		}
	}
	return n
}

// vtcRunner returns a Runner over a scaled-down VTC trace — the second
// workload the multi-axis decomposition property is seeded across.
func vtcRunner(t *testing.T, incremental bool) *Runner {
	t.Helper()
	p := workload.DefaultVTCParams()
	p.Tiles = 24
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	return &Runner{
		Hierarchy:   memhier.EmbeddedSoC(),
		Trace:       tr,
		Compiled:    ct,
		Workers:     4,
		Incremental: incremental,
	}
}

// TestMultiAxisDecompositionBitIdentical is the decomposition property
// test: sweeping a whole space visits every multi-axis delta between
// configurations — including the decomposable ones (a fixed-axis move
// crossed with a general-axis move, the NSGA-II crossover shape) that
// the pool-run memo turns into pure compositions. Every metric must stay
// bit-identical to the full-replay sweep (EnergyNJ compared as float
// bits), and both seeded workloads must actually exercise the composed
// path.
func TestMultiAxisDecompositionBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		space  *Space
		runner func(*testing.T, bool) *Runner
	}{
		{"easyport", EasyportSpace(), easyportRunner},
		{"vtc", VTCSpace(), vtcRunner},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, err := tc.runner(t, false).Explore(tc.space)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := tc.runner(t, true).Explore(tc.space)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, tc.name, full, inc)
			composed := countComposed(inc)
			if composed == 0 {
				t.Fatal("sweep never composed an evaluation from the pool-run memo")
			}
			if n := countComposed(full); n != 0 {
				t.Errorf("full sweep marked %d results composed", n)
			}
			t.Logf("%s: %d/%d composed, %d partial", tc.name, composed,
				len(inc), countIncremental(inc)-composed)
		})
	}
}

// TestIncrementalEquivalenceAcrossWorkerCounts locks the concurrency
// contract: screen-and-refine and NSGA-II walks stay bit-identical to the full
// replay path at every worker count. Which evaluation is composed vs
// partial may vary with scheduling (whoever claims a memo entry first
// builds it), but metrics — and therefore the walk — may not.
func TestIncrementalEquivalenceAcrossWorkerCounts(t *testing.T) {
	space := EasyportSpace()
	objectives := []string{"accesses", "footprint"}

	for _, workers := range []int{1, 2, 4, 8} {
		runner := func(incremental bool) *Runner {
			r := easyportRunner(t, incremental)
			r.Workers = workers
			return r
		}
		scFull, err := runner(false).ScreenAndRefine(space, objectives, 16, 48, 3)
		if err != nil {
			t.Fatal(err)
		}
		scInc, err := runner(true).ScreenAndRefine(space, objectives, 16, 48, 3)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, "screen", scFull, scInc)

		evFull, err := runner(false).EvolveIsland(space, objectives, IslandOptions{EvolveOptions: EvolveOptions{Population: 8, Budget: 40, Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		evInc, err := runner(true).EvolveIsland(space, objectives, IslandOptions{EvolveOptions: EvolveOptions{Population: 8, Budget: 40, Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, "evolve", evFull, evInc)
	}
}

// composablePair finds two configurations in the easyport space that
// share their general-pool vector but place the dedicated packet pool on
// different layers ("d74" vs "d74@sp") — routing-identical fixed
// signatures, so the second evaluation composes from the first's
// memoized pool run.
func composablePair(t *testing.T, space *Space) (int, int) {
	t.Helper()
	d74, sp := -1, -1
	for i := 0; i < space.Size(); i++ {
		_, labels, err := space.Config(i)
		if err != nil {
			t.Fatal(err)
		}
		rest := strings.Join(labels[1:], " ")
		if rest != "single first lifo never never chunk8k" {
			continue
		}
		switch labels[0] {
		case "d74":
			d74 = i
		case "d74@sp":
			sp = i
		}
	}
	if d74 < 0 || sp < 0 {
		t.Fatal("easyport space lost its d74/d74@sp pools options")
	}
	return d74, sp
}

// TestEvalLatencyComposedChargesCompositionOnly is the latency-model
// regression test: under Runner.EvalLatency, a partial evaluation
// charges latency pro-rata to the replayed ops, and a composed (memo
// hit) evaluation charges only its own composition cost — no modelled
// backend time at all.
func TestEvalLatencyComposedChargesCompositionOnly(t *testing.T) {
	const latency = 80 * time.Millisecond
	space := EasyportSpace()
	d74, sp := composablePair(t, space)

	r := easyportRunner(t, true)
	r.Workers = 1
	r.EvalLatency = latency
	sess, err := r.NewSession(space)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	first, err := sess.Eval([]int{d74}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !first[0].Incremental || first[0].Composed {
		t.Fatalf("first eval not a built partial: %+v", first[0])
	}
	if first[0].Duration >= latency {
		t.Errorf("partial eval charged %v, want pro-rata under the full %v",
			first[0].Duration, latency)
	}

	second, err := sess.Eval([]int{sp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !second[0].Composed {
		t.Fatalf("second eval not composed from the memo: %+v", second[0])
	}
	// The composition is O(ops) arithmetic; anything near the modelled
	// latency means the backend was charged.
	if second[0].Duration >= latency/4 {
		t.Errorf("composed eval took %v, want composition cost only (well under %v)",
			second[0].Duration, latency)
	}
}

// TestSessionCacheEviction bounds the incremental caches with budgets
// small enough to churn: the sweep must stay bit-identical to the full
// path (an evicted partition or pool run rebuilds, never corrupts) while
// the stats report real evictions and a bounded resident set.
func TestSessionCacheEviction(t *testing.T) {
	space := EasyportSpace()
	full, err := easyportRunner(t, false).Sample(space, 64, 5)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := easyportRunner(t, true).NewSession(space)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Budgets that hold roughly one easyport partition, swapped in before
	// the first Eval hands a worker any job.
	sess.parts = newOnceCache[*profile.Partition](2 * 1024)
	sess.runs = newOnceCache[*profile.PoolRun](2 * 1024)
	indices := SweepIndices(space.Size(), 64, 5) // Sample's draw, same seed
	inc, err := sess.Eval(indices, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "evicting-sample", full, inc)

	// Both caches must evict: a partition rebuilt on a warm Replayer is
	// the path that reuses its recording buffers.
	st := sess.IncrementalCacheStats()
	if st.PartitionEvictions == 0 || st.PoolRunEvictions == 0 {
		t.Fatalf("tiny budgets left a cache unevicted: %+v", st)
	}
	if st.PartitionBytes > 64*1024 || st.PoolRunBytes > 64*1024 {
		t.Fatalf("resident bytes unbounded under budget: %+v", st)
	}
	t.Logf("stats after churn: %+v", st)
}

// TestIncrementalExploreMatchesFull sweeps a slice of the easyport space
// exhaustively both ways: identical metrics, and the incremental run must
// serve a substantial share of configurations from partial replays.
func TestIncrementalExploreMatchesFull(t *testing.T) {
	space := EasyportSpace()
	full, err := easyportRunner(t, false).Sample(space, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := easyportRunner(t, true).Sample(space, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "sample", full, inc)
	n := countIncremental(inc)
	if n == 0 {
		t.Fatal("no configuration served incrementally")
	}
	skipped := uint64(0)
	for _, r := range inc {
		skipped += r.EventsSkipped
	}
	if skipped == 0 {
		t.Fatal("incremental results report zero skipped events")
	}
	t.Logf("%d/%d configurations served incrementally, %d events skipped", n, len(inc), skipped)
}

// TestIncrementalTierSequencePinned pins which evaluation tier serves
// each configuration of a fixed request sequence, and the telemetry
// counters each tier bumps. One worker makes the order of partition
// builds, pool-run builds and compositions deterministic. The first
// session covers partial replays, compositions (d74@sp records the same
// fallback ops as d74, so it reuses d74's pool runs), a declined partial
// path (d74 with the double growth policy) and, in its second wave, memo
// hits. A second session over the same Store is served metrics hits;
// the pool runs it needs it builds again, since they are session state.
func TestIncrementalTierSequencePinned(t *testing.T) {
	type tier struct {
		memo, cache, incremental, composed bool
		skipped                            uint64
	}
	type counts struct {
		sims, partial, composed, builds, memo, cache uint64
	}
	store, err := OpenStore(filepath.Join(t.TempDir(), "store.jsonl"), 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(waves [][]int) ([]tier, counts) {
		t.Helper()
		r := easyportRunner(t, true)
		r.Workers = 1
		r.Store = store
		r.Telemetry = telemetry.NewCollector(1)
		sess, err := r.NewSession(EasyportSpace())
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		var got []tier
		for _, wave := range waves {
			rs, err := sess.Eval(wave, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range rs {
				got = append(got, tier{res.MemoHit, res.CacheHit, res.Incremental, res.Composed, res.EventsSkipped})
			}
		}
		s := r.Telemetry.Snapshot()
		return got, counts{s.Sims, s.PartialSims, s.ComposedEvals, s.PartitionBuilds, s.MemoHits, s.CacheHits}
	}
	check := func(name string, gotT []tier, gotC counts, wantT []tier, wantC counts) {
		t.Helper()
		if len(gotT) != len(wantT) {
			t.Fatalf("%s: %d results, want %d", name, len(gotT), len(wantT))
		}
		for i := range wantT {
			if gotT[i] != wantT[i] {
				t.Errorf("%s: result %d tier %+v, want %+v", name, i, gotT[i], wantT[i])
			}
		}
		if gotC != wantC {
			t.Errorf("%s: counters %+v, want %+v", name, gotC, wantC)
		}
	}

	var (
		full     = tier{}
		memo     = tier{memo: true}
		cache    = tier{cache: true}
		partialD = tier{incremental: true, skipped: 1081} // d74 partition
		partialN = tier{incremental: true, skipped: 711}  // no fixed pools
		composed = tier{incremental: true, composed: true, skipped: 1363}
	)
	// 128 builds the d74 partition and its pool run; 129 (double growth)
	// declines to a full replay; 256 and 257 build the d74@sp partition
	// and compose 128's and 129's pool runs; 0 builds the pool-less
	// partition. The second wave repeats 128 and 256.
	gotT, gotC := run([][]int{{128, 129, 256, 257, 0}, {128, 256, 1, 130}})
	check("first session", gotT, gotC,
		[]tier{partialD, full, composed, composed, partialN, memo, memo, partialN, partialD},
		counts{sims: 5, partial: 4, composed: 2, builds: 3, memo: 2, cache: 0})
	// 258 replays the pool run 130 built in the first session (d74@sp
	// records d74's ops); 2 is a fresh partial replay.
	gotT, gotC = run([][]int{{128, 129, 257, 258, 2}})
	check("second session", gotT, gotC,
		[]tier{cache, cache, cache, partialD, partialN},
		counts{sims: 2, partial: 2, composed: 0, builds: 2, memo: 0, cache: 3})
}
