package trace_test

import (
	"reflect"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/stats"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// relabel returns tr with every allocation ID id replaced by to(id).
func relabel(tr *trace.Trace, to func(uint64) uint64) *trace.Trace {
	out := &trace.Trace{Name: tr.Name, Events: make([]trace.Event, len(tr.Events))}
	for i, e := range tr.Events {
		if e.Kind() != trace.KindTick {
			e = e.WithID(to(e.ID()))
		}
		out.Events[i] = e
	}
	return out
}

// TestCompileIgnoresIDLabels relabels a generated Easyport trace's IDs
// (1..n) three ways — a seeded permutation, sparse i<<40|salt, and
// counting down from MaxID — and requires each to compile to the
// original's Compiled and to profile to its Metrics under the three
// presets and four EasyportSpace configurations: raw IDs are labels,
// nothing more. The sparse IDs take the table's hashed slots, where a
// lookup must stay short.
func TestCompileIgnoresIDLabels(t *testing.T) {
	gen, err := workload.New("easyport", 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	perm := stats.NewRNG(3).Perm(want.NumIDs)
	relabelings := []struct {
		name string
		to   func(uint64) uint64
	}{
		{"permutation", func(id uint64) uint64 { return uint64(perm[id-1]) + 1 }},
		{"sparse", func(id uint64) uint64 { return id<<40 | 0x2b7e1 }},
		{"descending", func(id uint64) uint64 { return trace.MaxID - id }},
	}

	h := memhier.EmbeddedSoC()
	configs := []alloc.Config{
		alloc.KingsleyConfig(memhier.LayerDRAM),
		alloc.LeaConfig(memhier.LayerDRAM),
		alloc.SimpleFirstFitConfig(memhier.LayerDRAM),
	}
	space := core.EasyportSpace()
	for _, idx := range stats.NewRNG(5).Perm(space.Size())[:4] {
		cfg, _, err := space.Config(idx)
		if err != nil {
			t.Fatal(err)
		}
		configs = append(configs, cfg)
	}
	wantMetrics := make([]*profile.Metrics, len(configs))
	for i, cfg := range configs {
		if wantMetrics[i], err = profile.Run(tr, cfg, h, profile.Options{}); err != nil {
			t.Fatal(err)
		}
	}

	for _, rl := range relabelings {
		got := relabel(tr, rl.to)
		ct, err := trace.Compile(got)
		if err != nil {
			t.Fatalf("%s: %v", rl.name, err)
		}
		if !reflect.DeepEqual(ct, want) {
			t.Errorf("%s: compiled trace differs from the original's", rl.name)
		}
		for i, cfg := range configs {
			m, err := profile.Run(got, cfg, h, profile.Options{})
			if err != nil {
				t.Fatalf("%s, %s: %v", rl.name, cfg.ID(), err)
			}
			if !reflect.DeepEqual(m, wantMetrics[i]) {
				t.Errorf("%s, %s: metrics differ from the original's", rl.name, cfg.ID())
			}
		}
		probes, hashed := trace.MeanProbes(got.Events)
		if hashed != (rl.name == "sparse") {
			t.Errorf("%s: hashed slots %v", rl.name, hashed)
		}
		if probes >= 2 {
			t.Errorf("%s: %.3f probes a lookup, want below 2", rl.name, probes)
		}
		t.Logf("%s: %.3f probes a lookup", rl.name, probes)
	}
}
