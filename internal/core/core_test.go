package core

import (
	"sync"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// tinySpace returns a 2x3 space over the general pool's fit and coalesce.
func tinySpace() *Space {
	base := alloc.Config{General: baseGeneral()}
	return &Space{
		Name: "tiny",
		Base: base,
		Axes: []Axis{
			{Name: "fit", Options: []Option{
				{Label: "first", Apply: func(c *alloc.Config) { c.General.Fit = alloc.FirstFit }},
				{Label: "best", Apply: func(c *alloc.Config) { c.General.Fit = alloc.BestFit }},
			}},
			{Name: "coalesce", Options: []Option{
				{Label: "never", Apply: func(c *alloc.Config) { c.General.Coalesce = alloc.CoalesceNever }},
				{Label: "immediate", Apply: func(c *alloc.Config) { c.General.Coalesce = alloc.CoalesceImmediate }},
				{Label: "deferred", Apply: func(c *alloc.Config) {
					c.General.Coalesce = alloc.CoalesceDeferred
					c.General.CoalesceEvery = 16
				}},
			}},
		},
	}
}

func tinyTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := workload.DefaultSyntheticParams()
	p.Ops = 1500
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSpaceSizeAndDecode(t *testing.T) {
	s := tinySpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 6 {
		t.Fatalf("size %d", s.Size())
	}
	seen := make(map[string]bool)
	for i := 0; i < s.Size(); i++ {
		cfg, labels, err := s.Config(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(labels) != 2 {
			t.Fatalf("labels %v", labels)
		}
		if seen[cfg.ID()] {
			t.Fatalf("config %d duplicates ID %s", i, cfg.ID())
		}
		seen[cfg.ID()] = true
	}
	if _, _, err := s.Config(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, _, err := s.Config(6); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestSpaceBaseNotMutated(t *testing.T) {
	s := &Space{
		Name: "mut",
		Base: alloc.Config{General: baseGeneral()},
		Axes: []Axis{{Name: "pools", Options: []Option{
			{Label: "add", Apply: func(c *alloc.Config) {
				c.Fixed = append(c.Fixed, dedicatedPool(74, memhier.LayerDRAM, 8, 0))
			}},
		}}},
	}
	for i := 0; i < 3; i++ {
		cfg, _, err := s.Config(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(cfg.Fixed) != 1 {
			t.Fatalf("iteration %d: %d fixed pools (base leaked)", i, len(cfg.Fixed))
		}
	}
	if len(s.Base.Fixed) != 0 {
		t.Fatal("base config mutated")
	}
}

func TestSpaceValidateErrors(t *testing.T) {
	bad := []*Space{
		{Name: "noaxes"},
		{Name: "emptyaxis", Axes: []Axis{{Name: "a"}}},
		{Name: "dup", Axes: []Axis{{Name: "a", Options: []Option{
			{Label: "x", Apply: func(*alloc.Config) {}},
			{Label: "x", Apply: func(*alloc.Config) {}},
		}}}},
		{Name: "nilapply", Axes: []Axis{{Name: "a", Options: []Option{{Label: "x"}}}}},
		{Name: "nolabel", Axes: []Axis{{Name: "a", Options: []Option{{Apply: func(*alloc.Config) {}}}}}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("space %q accepted", s.Name)
		}
	}
}

func TestExploreExhaustive(t *testing.T) {
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: 4}
	results, err := r.Explore(tinySpace())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results %d", len(results))
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
		if res.Metrics == nil || res.Err != nil {
			t.Fatalf("result %d: %v", i, res.Err)
		}
		if res.Metrics.Accesses == 0 {
			t.Fatalf("result %d empty", i)
		}
	}
}

func TestExploreDeterministicAcrossWorkerCounts(t *testing.T) {
	tr := tinyTrace(t)
	run := func(workers int) []Result {
		r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Workers: workers}
		results, err := r.Explore(tinySpace())
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	seq := run(1)
	par := run(8)
	for i := range seq {
		if seq[i].Metrics.Accesses != par[i].Metrics.Accesses ||
			seq[i].Metrics.FootprintBytes != par[i].Metrics.FootprintBytes {
			t.Fatalf("config %d differs across worker counts", i)
		}
	}
}

func TestExploreProgress(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	last := 0
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: 2,
		Progress: func(done, total int) {
			mu.Lock()
			calls++
			if done > last {
				last = done
			}
			if total != 6 {
				t.Errorf("total %d", total)
			}
			mu.Unlock()
		},
	}
	if _, err := r.Explore(tinySpace()); err != nil {
		t.Fatal(err)
	}
	if calls != 6 || last != 6 {
		t.Fatalf("progress calls %d last %d", calls, last)
	}
}

func TestSample(t *testing.T) {
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t)}
	results, err := r.Sample(tinySpace(), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("sampled %d", len(results))
	}
	seen := make(map[int]bool)
	for _, res := range results {
		if seen[res.Index] {
			t.Fatal("duplicate sample")
		}
		seen[res.Index] = true
	}
	// Sampling more than the space size degrades to exhaustive.
	all, err := r.Sample(tinySpace(), 100, 42)
	if err != nil || len(all) != 6 {
		t.Fatalf("oversample: %d %v", len(all), err)
	}
	if _, err := r.Sample(tinySpace(), 0, 1); err == nil {
		t.Fatal("zero sample accepted")
	}
}

func TestRunnerValidation(t *testing.T) {
	r := &Runner{}
	if _, err := r.Explore(tinySpace()); err == nil {
		t.Fatal("runner without trace/hierarchy accepted")
	}
}

func TestRangeAndPareto(t *testing.T) {
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t)}
	results, err := r.Explore(tinySpace())
	if err != nil {
		t.Fatal(err)
	}
	feasible := Feasible(results)
	if len(feasible) == 0 {
		t.Fatal("no feasible configurations")
	}
	orange, err := Range(feasible, profile.ObjAccesses)
	if err != nil {
		t.Fatal(err)
	}
	if orange.Min <= 0 || orange.Max < orange.Min || orange.Factor < 1 {
		t.Fatalf("range %+v", orange)
	}
	if orange.BestIndex < 0 || orange.WorstIndex < 0 {
		t.Fatalf("range indices %+v", orange)
	}

	front, points, err := ParetoSet(feasible, []string{profile.ObjAccesses, profile.ObjFootprint})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 || len(front) > len(feasible) {
		t.Fatalf("front size %d", len(front))
	}
	if len(points) < len(front) {
		t.Fatalf("points %d < front %d", len(points), len(front))
	}
	// Front results sorted by accesses ascending.
	for i := 1; i < len(front); i++ {
		if front[i].Metrics.Accesses < front[i-1].Metrics.Accesses {
			t.Fatal("front not sorted")
		}
	}
	// No front member dominated by any feasible result.
	for _, f := range front {
		for _, r := range feasible {
			if r.Metrics.Accesses < f.Metrics.Accesses &&
				r.Metrics.FootprintBytes < f.Metrics.FootprintBytes {
				t.Fatalf("front config %d dominated by %d", f.Index, r.Index)
			}
		}
	}

	if _, _, err := ParetoSet(feasible, []string{profile.ObjAccesses}); err == nil {
		t.Fatal("single-objective pareto accepted")
	}
	if _, _, err := ParetoSet(feasible, []string{"nope", "nah"}); err == nil {
		t.Fatal("unknown objective accepted")
	}
}

func TestReductionPercent(t *testing.T) {
	if got := ReductionPercent(4.1); got < 75 || got > 76 {
		t.Fatalf("4.1x -> %v%%", got)
	}
	if got := ReductionPercent(2.9); got < 65 || got > 66 {
		t.Fatalf("2.9x -> %v%%", got)
	}
	if ReductionPercent(1) != 0 {
		t.Fatal("factor 1 not 0%")
	}
	if ReductionPercent(0) != 0 {
		t.Fatal("factor 0 not 0%")
	}
}

func TestCaseStudySpacesValid(t *testing.T) {
	for _, s := range []*Space{EasyportSpace(), FullEasyportSpace(), VTCSpace()} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		// Every configuration must validate against the SoC hierarchy.
		h := memhier.EmbeddedSoC()
		step := s.Size()/97 + 1 // spot-check a spread of indices
		for i := 0; i < s.Size(); i += step {
			cfg, _, err := s.Config(i)
			if err != nil {
				t.Fatalf("%s[%d]: %v", s.Name, i, err)
			}
			if err := cfg.Validate(h); err != nil {
				t.Fatalf("%s[%d]: %v", s.Name, i, err)
			}
		}
	}
}

func TestFullSpaceCardinality(t *testing.T) {
	if n := FullEasyportSpace().Size(); n < 10000 {
		t.Fatalf("full space %d configurations, want tens of thousands", n)
	}
	if n := EasyportSpace().Size(); n < 100 || n > 2000 {
		t.Fatalf("narrow space %d configurations", n)
	}
}

// TestShippedSpacesHaveNoInertOption materializes every configuration of
// every shipped space and requires each pair of options of each axis to
// give different Config.IDs somewhere in the space: an option that never
// changes the ID only relabels configurations another option already
// names. It also pins each space's number of distinct IDs.
// FullEasyportSpace has 58,320: its 64,800 configurations less the
// 6,480 where reclaim marks no pool (pools none).
func TestShippedSpacesHaveNoInertOption(t *testing.T) {
	suggested, err := SuggestSpace("auto", easyportProfile(t), memhier.EmbeddedSoC())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		space    *Space
		distinct int
	}{
		{FullEasyportSpace(), 58320},
		{EasyportSpace(), 640},
		{VTCSpace(), 288},
		{suggested, suggested.Size()},
	} {
		s := tc.space
		ids := make([]string, s.Size())
		seen := make(map[string]bool, len(ids))
		for i := range ids {
			cfg, _, err := s.Config(i)
			if err != nil {
				t.Fatalf("%s[%d]: %v", s.Name, i, err)
			}
			ids[i] = cfg.ID()
			seen[ids[i]] = true
		}
		if len(seen) != tc.distinct {
			t.Errorf("%s: %d distinct configuration IDs, want %d", s.Name, len(seen), tc.distinct)
		}
		stride := s.Size()
		for _, ax := range s.Axes {
			n := len(ax.Options)
			stride /= n
			for j := 0; j < n; j++ {
				for k := j + 1; k < n; k++ {
					differ := false
					// Every index whose digit on this axis is j.
					for base := j * stride; base < s.Size() && !differ; base += n * stride {
						for i := base; i < base+stride; i++ {
							if ids[i] != ids[i+(k-j)*stride] {
								differ = true
								break
							}
						}
					}
					if !differ {
						t.Errorf("%s: axis %q options %q and %q give the same configuration everywhere",
							s.Name, ax.Name, ax.Options[j].Label, ax.Options[k].Label)
					}
				}
			}
		}
	}
}

func TestExploreMemoizesDuplicateConfigs(t *testing.T) {
	// An axis that is a no-op under another axis's value produces
	// duplicate configurations; they must share one simulation result.
	s := &Space{
		Name: "dup",
		Base: alloc.Config{General: baseGeneral()},
		Axes: []Axis{
			{Name: "pools", Options: []Option{
				{Label: "none", Apply: func(c *alloc.Config) {}},
			}},
			{Name: "reclaim", Options: []Option{ // no-op without pools
				{Label: "keep", Apply: func(c *alloc.Config) {}},
				{Label: "reclaim", Apply: func(c *alloc.Config) {
					for i := range c.Fixed {
						c.Fixed[i].Reclaim = true
					}
				}},
			}},
		},
	}
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: 1}
	results, err := r.Explore(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results %d", len(results))
	}
	if results[0].Metrics != results[1].Metrics {
		t.Fatal("duplicate configurations did not share one simulation")
	}
}
