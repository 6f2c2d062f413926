package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dmexplore/internal/profile"
)

// TestSearchWalksPinned pins the evaluation order of the screen-and-
// refine search: the walk's Evaluated index sequence is hashed (FNV-64a
// over its fmt.Fprint form) and compared with a pinned value. Any change
// to the walk, however small, changes its hash, so a refactor of the
// search must leave it unchanged.
func TestSearchWalksPinned(t *testing.T) {
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	const budget, screen, seed = 96, 16, 17
	const want = 0xa3f217f99ed95504

	results, err := searchRunner(t).ScreenAndRefine(space, objs, screen, budget, seed)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(results))
	for i, res := range results {
		idx[i] = res.Index
	}
	h := fnv.New64a()
	fmt.Fprint(h, idx)
	if got := h.Sum64(); got != want {
		t.Errorf("screen: walk hash %016x, want %016x", got, uint64(want))
	}
}
