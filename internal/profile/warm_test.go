package profile

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// smallVTC returns a 24-tile VTC trace and its compilation.
func smallVTC(t *testing.T) (*trace.Trace, *trace.Compiled) {
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
	return tr, ct
}

// TestWarmReplayerMatchesFresh passes one Replayer through the pool
// between every step — full runs, partitions, pool replays and
// compositions over a VTC and an Easyport trace, a logged run, and a
// recompiled trace — and requires each result to be bit-identical to a
// fresh Replayer's. The last step overwrites a trace the Replayer ran
// in place, so the next trace sits at the old one's address: the flat
// view must not take it for the trace it described.
func TestWarmReplayerMatchesFresh(t *testing.T) {
	warm.mu.Lock()
	warm.free = nil // start from an empty pool so the Replayer comes back
	warm.mu.Unlock()

	h := memhier.EmbeddedSoC()
	vtcTrace, vtc := smallVTC(t)
	ep := easyportCompiled(t, 300)
	r := GetReplayer()
	cycle := func() {
		t.Helper()
		PutReplayer(r)
		if got := GetReplayer(); got != r {
			t.Fatal("the pool did not hand back the Replayer it was given")
		}
	}
	defer PutReplayer(r)

	check := func(name string, ct *trace.Compiled) {
		t.Helper()
		for _, cfg := range incrementalConfigs() {
			fresh := NewReplayer()
			want, err := fresh.Run(ct, cfg, h, Options{})
			if err != nil {
				t.Fatalf("%s %s: fresh run: %v", name, cfg.Label, err)
			}
			got, err := r.Run(ct, cfg, h, Options{})
			if err != nil {
				t.Fatalf("%s %s: warm run: %v", name, cfg.Label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: warm run diverges:\n  got  %+v\n  want %+v", name, cfg.Label, got, want)
			}
			cycle()

			wantPart, err := fresh.Partition(ct, cfg, h)
			if err != nil {
				t.Fatalf("%s %s: fresh partition: %v", name, cfg.Label, err)
			}
			part, err := r.Partition(ct, cfg, h)
			if err != nil {
				t.Fatalf("%s %s: warm partition: %v", name, cfg.Label, err)
			}
			if !reflect.DeepEqual(part, wantPart) {
				t.Errorf("%s %s: warm partition diverges", name, cfg.Label)
			}
			cycle()

			wantRun, wantOK := fresh.PoolReplay(wantPart, cfg, h)
			run, ok := r.PoolReplay(part, cfg, h)
			if ok != wantOK || !reflect.DeepEqual(run, wantRun) {
				t.Errorf("%s %s: warm pool replay diverges (ok %v, want %v)", name, cfg.Label, ok, wantOK)
			}
			if ok && wantOK {
				wantM, wantOK := fresh.Compose(wantPart, wantRun, cfg, h)
				m, ok := r.Compose(part, run, cfg, h)
				if ok != wantOK || !reflect.DeepEqual(m, wantM) {
					t.Errorf("%s %s: warm composition diverges (ok %v, want %v)", name, cfg.Label, ok, wantOK)
				}
			}
			cycle()
		}
	}
	check("vtc", vtc)
	check("easyport", ep)

	var wantLog, gotLog bytes.Buffer
	cfg := alloc.LeaConfig(memhier.LayerDRAM)
	want, err := NewReplayer().Run(ep, cfg, h, Options{LogWriter: &wantLog})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(ep, cfg, h, Options{LogWriter: &gotLog})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !bytes.Equal(gotLog.Bytes(), wantLog.Bytes()) {
		t.Error("warm logged run diverges from a fresh one")
	}
	cycle()

	recompiled, err := trace.Compile(vtcTrace)
	if err != nil {
		t.Fatal(err)
	}
	check("vtc recompiled", recompiled)

	// Leave the flat view describing ep, then overwrite ep in place with
	// the VTC trace, at the same address.
	if _, err := r.Run(ep, cfg, h, Options{}); err != nil {
		t.Fatal(err)
	}
	cycle()
	if r.flat.ct != nil {
		t.Fatal("a pooled Replayer keeps its last trace")
	}
	*ep = *recompiled
	check("vtc at the easyport address", ep)
}

// TestWarmReplayerFailedAllocsForgetLastRun runs one Replayer over a
// trace that leaves its allocations live at the end, first with every
// allocation succeeding, then under a 32 KB budget where most fail, in
// both replay loops. The Replayer does not clear its pointer table
// between runs, so a failed allocation must overwrite what the last run
// left for its ID: an access to it must charge nothing, as on a fresh
// Replayer.
func TestWarmReplayerFailedAllocsForgetLastRun(t *testing.T) {
	b := trace.NewBuilder("unfreed")
	for i := 0; i < 200; i++ {
		id := b.Alloc(int64(64 + i%7*32))
		b.Access(id, 3, 2)
	}
	ct, err := trace.Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	roomy := alloc.KingsleyConfig(memhier.LayerDRAM)
	tight := alloc.KingsleyConfig(memhier.LayerDRAM)
	tight.General.MaxBytes = 32 * 1024
	for _, opts := range []Options{{}, {SampleEvery: 16}} {
		r := NewReplayer()
		if _, err := r.Run(ct, roomy, h, opts); err != nil {
			t.Fatal(err)
		}
		want, err := NewReplayer().Run(ct, tight, h, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.Failures == 0 {
			t.Fatal("the 32 KB budget failed no allocation")
		}
		got, err := r.Run(ct, tight, h, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: warm run diverges:\n  got  %+v\n  want %+v", opts, got, want)
		}
	}
}

// TestReplayerPoolConcurrent takes and gives back pooled Replayers from
// several goroutines at once, as the workers of concurrent sessions do;
// run it under the race detector. Every run must match a fresh one.
func TestReplayerPoolConcurrent(t *testing.T) {
	h := memhier.EmbeddedSoC()
	ct := easyportCompiled(t, 50)
	cfgs := incrementalConfigs()
	want := make([]*Metrics, len(cfgs))
	for i, cfg := range cfgs {
		m, err := NewReplayer().Run(ct, cfg, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range 3 * len(cfgs) {
				k := (g + i) % len(cfgs)
				r := GetReplayer()
				got, err := r.Run(ct, cfgs[k], h, Options{})
				PutReplayer(r)
				if err != nil || !reflect.DeepEqual(got, want[k]) {
					t.Errorf("%s: pooled run diverges from a fresh one (err %v)", cfgs[k].Label, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmBuildMatchesFresh interleaves configurations and options on
// one warm Replayer, whose every run builds its allocator and context
// from what the runs before it left in the stash, and requires each
// result to match a fresh Replayer's bit for bit. The mix holds the
// presets, a buddy fallback, capacity-failing configurations (one with a
// bounded scratchpad pool that overflows), a logged run, whose log must
// match too, and runs with a cache on either layer: the runs after those
// must not see the tracer or cache a reset context dropped.
// Partitions and pool replays run in between, building on the same
// stash.
func TestWarmBuildMatchesFresh(t *testing.T) {
	h := memhier.EmbeddedSoC()
	ep := easyportCompiled(t, 200)
	_, vtc := smallVTC(t)
	oom, err := trace.Compile(oomTrace())
	if err != nil {
		t.Fatal(err)
	}
	cached := Options{Caches: map[string]CacheSpec{memhier.LayerDRAM: {SizeWords: 512, LineWords: 8, Ways: 2}}}
	spCached := Options{Caches: map[string]CacheSpec{memhier.LayerScratchpad: {SizeWords: 256, LineWords: 8, Ways: 2}}}
	type step struct {
		ct   *trace.Compiled
		cfg  alloc.Config
		opts Options
		log  bool
	}
	var steps []step
	mixed := append(presetConfigs(), incrementalConfigs()...)
	for i, cfg := range mixed {
		steps = append(steps, step{ct: ep, cfg: cfg})
		switch i % 5 {
		case 0:
			steps = append(steps, step{ct: vtc, cfg: cfg, opts: cached})
		case 1:
			steps = append(steps, step{ct: oom, cfg: oomConfig()})
		case 2:
			steps = append(steps, step{ct: ep, cfg: oomConfigs()[i%2], log: true})
		case 3:
			steps = append(steps, step{ct: ep, cfg: cfg, opts: spCached})
		case 4:
			steps = append(steps, step{ct: vtc, cfg: cfg, opts: Options{SampleEvery: 64}})
		}
	}

	r := NewReplayer()
	failed := 0
	for i, s := range steps {
		var gotLog, wantLog bytes.Buffer
		gotOpts, wantOpts := s.opts, s.opts
		if s.log {
			gotOpts.LogWriter, wantOpts.LogWriter = &gotLog, &wantLog
		}
		got, err := r.Run(s.ct, s.cfg, h, gotOpts)
		if err != nil {
			t.Fatalf("step %d %s: warm run: %v", i, s.cfg.ID(), err)
		}
		want, err := NewReplayer().Run(s.ct, s.cfg, h, wantOpts)
		if err != nil {
			t.Fatalf("step %d %s: fresh run: %v", i, s.cfg.ID(), err)
		}
		if !reflect.DeepEqual(got, want) || !bytes.Equal(gotLog.Bytes(), wantLog.Bytes()) {
			t.Errorf("step %d %s (%+v): warm run diverges:\n  got  %+v\n  want %+v", i, s.cfg.ID(), s.opts, got, want)
		}
		if got.Failures > 0 {
			failed++
		}
		if i%3 == 0 {
			part, err := r.Partition(ep, s.cfg, h)
			if err != nil {
				t.Fatalf("step %d %s: partition: %v", i, s.cfg.ID(), err)
			}
			wantPart, err := NewReplayer().Partition(ep, s.cfg, h)
			if err != nil || !reflect.DeepEqual(part, wantPart) {
				t.Errorf("step %d %s: warm partition diverges (err %v)", i, s.cfg.ID(), err)
			}
			run, ok := r.PoolReplay(part, s.cfg, h)
			wantRun, wantOK := NewReplayer().PoolReplay(wantPart, s.cfg, h)
			if ok != wantOK || !reflect.DeepEqual(run, wantRun) {
				t.Errorf("step %d %s: warm pool replay diverges (ok %v, want %v)", i, s.cfg.ID(), ok, wantOK)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no step failed an allocation")
	}
}
