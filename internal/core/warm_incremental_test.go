package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/trace"
)

// warmCase is one kind of incremental session TestWarmIncrementalMatchesFresh
// runs first and then again on the storage later sessions reused.
type warmCase struct {
	name    string
	space   *Space
	ct      *trace.Compiled
	indices []int
	tiny    bool // 2 KiB caches that evict, as in TestSessionCacheEviction
}

// run evaluates the case's indices in one one-worker incremental
// session, in order, and returns the results.
func (c warmCase) run(t *testing.T, h *memhier.Hierarchy) []Result {
	t.Helper()
	r := &Runner{Hierarchy: h, Compiled: c.ct, Workers: 1, Incremental: true}
	s, err := r.NewSession(c.space)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if c.tiny {
		s.parts = newOnceCache[*profile.Partition](2 * 1024)
		s.runs = newOnceCache[*profile.PoolRun](2 * 1024)
	}
	res, err := s.Eval(c.indices, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The tiny caches must evict partitions, or no partition is rebuilt
	// on a Replayer whose recording buffers the last build left full.
	if st := s.IncrementalCacheStats(); c.tiny && (st.PartitionEvictions == 0 || st.PoolRunEvictions == 0) {
		t.Fatalf("%s: 2 KiB caches left a cache unevicted: %+v", c.name, st)
	}
	return res
}

// TestWarmIncrementalMatchesFresh runs incremental sessions of several
// kinds interleaved, each on the warm Replayer the session before it
// gave back, whose recording buffers still hold the last partition's
// liveness flags and gap-maximum change points: VTC and Easyport spaces
// on different traces, configurations whose scratchpad capacity makes
// composition decline to full replay and caches small enough to evict. Every result
// must equal, bit for bit, a fresh session's result (tier and skipped
// events included), whose worker starts from a new Replayer, and its
// metrics a full Replayer.Run's.
func TestWarmIncrementalMatchesFresh(t *testing.T) {
	h := memhier.EmbeddedSoC()
	vtc := vtcCompiled(t)
	easyport := easyportRunner(t, true).Compiled
	all := func(space *Space) []int { return SweepIndices(space.Size(), 0, 0) }
	cases := []warmCase{
		{name: "vtc", space: VTCSpace(), ct: vtc, indices: all(VTCSpace())},
		{name: "easyport", space: EasyportSpace(), ct: easyport, indices: all(EasyportSpace())},
		{name: "evicting", space: EasyportSpace(), ct: easyport, indices: SweepIndices(EasyportSpace().Size(), 64, 5), tiny: true},
	}

	// Fresh results, each from a session whose worker starts from a new
	// Replayer, and full replays of every configuration.
	fresh := map[string][]Result{}
	rep := profile.NewReplayer()
	for _, c := range cases {
		emptyReplayerPool()
		res := c.run(t, h)
		fresh[c.name] = res
		for _, r := range res {
			cfg, _, err := c.space.Config(r.Index)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rep.Run(c.ct, cfg, h, profile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameMetrics(r.Metrics, want) {
				t.Fatalf("%s: configuration %d: fresh session %+v, full replay %+v", c.name, r.Index, r.Metrics, want)
			}
		}
	}
	// The configurations whose composition declines: their general pool
	// sits on the bounded scratchpad, where the composed peak overflows
	// or the standalone pool fails where a fixed pool shares the layer,
	// so they replay in full inside an incremental session.
	decline := warmCase{name: "declining", space: EasyportSpace(), ct: easyport}
	for _, r := range fresh["easyport"] {
		if !r.Incremental {
			decline.indices = append(decline.indices, r.Index)
		}
	}
	if len(decline.indices) == 0 {
		t.Fatal("no Easyport configuration declines to full replay")
	}
	for _, idx := range decline.indices {
		cfg, _, _ := decline.space.Config(idx)
		if layer, _ := h.ByName(cfg.General.Layer); !h.Layer(layer).Bounded() {
			t.Fatalf("declining configuration %d has an unbounded general layer %s", idx, cfg.General.Layer)
		}
	}
	emptyReplayerPool()
	fresh[decline.name] = decline.run(t, h)
	cases = append(cases, decline)

	// Warm rounds in two orders; each session's Replayer comes from the
	// one before it.
	for round := 0; round < 2; round++ {
		for k := range cases {
			c := cases[k]
			if round == 1 {
				c = cases[len(cases)-1-k]
			}
			got := c.run(t, h)
			want := fresh[c.name]
			for i := range got {
				if !sameResult(got[i], want[i]) {
					t.Fatalf("%s, warm round %d: result %d differs from a fresh session's:\n  warm  %+v %+v\n  fresh %+v %+v",
						c.name, round, i, got[i], got[i].Metrics, want[i], want[i].Metrics)
				}
			}
		}
	}
}

// emptyReplayerPool takes every Replayer the process-wide pool holds and
// drops it, so the next session's workers start from new ones.
func emptyReplayerPool() {
	for range runtime.GOMAXPROCS(0) {
		profile.GetReplayer()
	}
}

// sameResult reports whether two results agree bit for bit in
// everything but their wall time.
func sameResult(a, b Result) bool {
	a.Duration, b.Duration = 0, 0
	return sameMetrics(a.Metrics, b.Metrics) && reflect.DeepEqual(a, b)
}

// sameMetrics reports whether two metrics agree bit for bit, energy
// included.
func sameMetrics(a, b *profile.Metrics) bool {
	if a == nil || b == nil {
		return a == b
	}
	return math.Float64bits(a.EnergyNJ) == math.Float64bits(b.EnergyNJ) && reflect.DeepEqual(a, b)
}
