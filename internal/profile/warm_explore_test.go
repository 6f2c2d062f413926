package profile_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// TestWarmReplayerZeroAllocs holds the pool to its purpose: after a
// warm-up session, one worker's cycle over VTCSpace — take a Replayer,
// run every configuration, give it back, as the worker of a second
// one-worker Runner.Explore does — allocates exactly as much as the
// same runs on a Replayer that never leaves the worker. So the round
// trip through the pool allocates nothing in the stash (the allocator's
// Blocks, pools, tables and pages), the context, the pointer and live
// tables or the flat view; only each run's result (its Metrics and
// their PerLayer slice, see TestWarmBuildZeroAllocs) remains. A fresh Replayer per cycle must allocate more, or the
// comparison would show nothing.
func TestWarmReplayerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
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
	h := memhier.EmbeddedSoC()
	space := core.VTCSpace()
	runner := &core.Runner{Hierarchy: h, Trace: tr, Compiled: ct, Workers: 1}
	if _, err := runner.Explore(space); err != nil { // the warm-up session
		t.Fatal(err)
	}

	cfgs := make([]alloc.Config, space.Size())
	for i := range cfgs {
		if cfgs[i], _, err = space.Config(i); err != nil {
			t.Fatal(err)
		}
	}
	runAll := func(r *profile.Replayer) {
		for _, cfg := range cfgs {
			if _, err := r.Run(ct, cfg, h, profile.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every other goroutine's allocations count too, and only add: take
	// the least of a few tries. With the collector off, fmt's sync.Pool
	// keeps its printers, and on one P a Put and the next Get meet.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pooled, kept := math.Inf(1), math.Inf(1)
	held := profile.GetReplayer()
	for try := 0; try < 4; try++ {
		profile.PutReplayer(held)
		pooled = min(pooled, testing.AllocsPerRun(1, func() {
			r := profile.GetReplayer()
			runAll(r)
			profile.PutReplayer(r)
		}))
		held = profile.GetReplayer()
		kept = min(kept, testing.AllocsPerRun(1, func() { runAll(held) }))
		if pooled == kept {
			break
		}
	}
	profile.PutReplayer(held)
	if pooled != kept {
		t.Errorf("a take -> run -> give-back cycle allocates %.0f times, a Replayer kept warm %.0f: the pool round trip allocates %.0f", pooled, kept, pooled-kept)
	}
	if fresh := testing.AllocsPerRun(1, func() { runAll(profile.NewReplayer()) }); fresh <= kept {
		t.Errorf("a fresh Replayer allocates %.0f times over VTCSpace, a warm one %.0f: the check cannot see scratch growth", fresh, kept)
	}
}
