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

// leastAllocs returns the fewest heap allocations f makes in a few
// tries, stopping early at want. Every other goroutine's allocations
// count too, and only add, so the least is the one to check; with the
// collector off and one P, nothing else is expected to run.
func leastAllocs(want float64, f func()) float64 {
	least := math.Inf(1)
	for try := 0; try < 4 && least != want; try++ {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// TestWarmBuildZeroAllocs holds a warm Replayer to building without the
// Go heap: once it has run every configuration of VTCSpace (on a VTC
// trace) and EasyportSpace (on an Easyport trace), a Run of any of them
// allocates only its result — the *Metrics, its PerLayer slice and its
// ConfigID string. The allocator (pools, bins, arenas, tables, slot
// pages, size-class map, Composed) comes from the Replayer's stash and
// the context is the Replayer's own, reset. A warm PoolReplay, which
// builds a standalone general pool on the same stash, allocates only
// its *PoolRun with the reserved-bytes change points and the counters
// it holds.
func TestWarmBuildZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	vp := workload.DefaultVTCParams()
	vp.Tiles = 12
	ep := workload.DefaultEasyportParams()
	ep.Packets = 150
	h := memhier.EmbeddedSoC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		space *core.Space
		gen   workload.Generator
	}{{core.VTCSpace(), vp}, {core.EasyportSpace(), ep}} {
		tr, err := c.gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		ct, err := trace.Compile(tr)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := make([]alloc.Config, c.space.Size())
		for i := range cfgs {
			if cfgs[i], _, err = c.space.Config(i); err != nil {
				t.Fatal(err)
			}
		}
		r := profile.NewReplayer()
		for _, cfg := range cfgs { // the warm-up
			if _, err := r.Run(ct, cfg, h, profile.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		bad := 0
		for _, cfg := range cfgs {
			const want = 3 // the Metrics, its PerLayer and its ConfigID
			n := leastAllocs(want, func() {
				if _, err := r.Run(ct, cfg, h, profile.Options{}); err != nil {
					t.Fatal(err)
				}
			})
			if n != want && bad < 5 {
				bad++
				t.Errorf("%s: a warm Run allocates %.0f times, want %d", cfg.ID(), n, want)
			}
		}

		// Pool replays of every general pool of the space, over the
		// partition of its first configuration's fixed pools.
		part, err := r.Partition(ct, cfgs[0], h)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs { // the warm-up
			r.PoolReplay(part, cfg, h)
		}
		for _, cfg := range cfgs {
			run, ok := r.PoolReplay(part, cfg, h)
			if !ok {
				continue
			}
			want := 3.0 // the PoolRun, its change points and its counters
			if run.Failures() > 0 {
				want++ // and its failure marks
			}
			n := leastAllocs(want, func() { r.PoolReplay(part, cfg, h) })
			if n != want && bad < 5 {
				bad++
				t.Errorf("%s: a warm PoolReplay allocates %.0f times, want %.0f", cfg.General.ID(), n, want)
			}
		}
	}
}
