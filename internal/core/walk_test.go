package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dmexplore/internal/profile"
)

// TestSearchWalksPinned pins the evaluation order of the guided searches,
// with the surrogate off and on: each walk's Evaluated index sequence is
// hashed (FNV-64a over its fmt.Fprint form) and compared with a pinned
// value. Any change to a walk, however small, changes its hash, so a
// refactor of the searches must leave all six unchanged.
func TestSearchWalksPinned(t *testing.T) {
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	weights := []Weighted{{profile.ObjAccesses, 1}, {profile.ObjFootprint, 0.5}}
	const budget, screen, seed = 96, 16, 17

	walks := []struct {
		name    string
		off, on uint64 // pinned hashes with the surrogate off and on
		run     func(r *Runner) ([]Result, error)
	}{
		{"hillclimb", 0x2d45e469b628d427, 0xcfd54c6c8d629709, func(r *Runner) ([]Result, error) {
			sr, err := r.HillClimb(space, weights, budget, seed)
			if err != nil {
				return nil, err
			}
			return sr.Evaluated, nil
		}},
		{"anneal", 0x386f9fa7cab283e1, 0x0ebde58ab0e32a43, func(r *Runner) ([]Result, error) {
			sr, err := r.Anneal(space, weights, budget, seed)
			if err != nil {
				return nil, err
			}
			return sr.Evaluated, nil
		}},
		{"screen", 0xa3f217f99ed95504, 0x9c89fec430049a28, func(r *Runner) ([]Result, error) {
			return r.ScreenAndRefine(space, objs, screen, budget, seed)
		}},
	}
	for _, surrogate := range []bool{false, true} {
		for _, w := range walks {
			r := searchRunner(t)
			if surrogate {
				r.Surrogate = &SurrogateOptions{}
			}
			results, err := w.run(r)
			if err != nil {
				t.Fatalf("%s (surrogate %t): %v", w.name, surrogate, err)
			}
			idx := make([]int, len(results))
			for i, res := range results {
				idx[i] = res.Index
			}
			h := fnv.New64a()
			fmt.Fprint(h, idx)
			want := w.off
			if surrogate {
				want = w.on
			}
			if got := h.Sum64(); got != want {
				t.Errorf("%s (surrogate %t): walk hash %016x, want %016x", w.name, surrogate, got, want)
			}
		}
	}
}
