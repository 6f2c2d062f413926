package core

import (
	"testing"

	"dmexplore/internal/profile"
)

func TestIslandSeedIdentityAndDispersion(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 40} {
		if got := IslandSeed(seed, 0); got != seed {
			t.Fatalf("IslandSeed(%d, 0) = %d, want the seed unchanged", seed, got)
		}
		seen := map[uint64]bool{}
		for i := 0; i < 16; i++ {
			s := IslandSeed(seed, i)
			if seen[s] {
				t.Fatalf("IslandSeed(%d, %d) collides with an earlier island", seed, i)
			}
			seen[s] = true
		}
	}
}

// TestEvolveIslandZeroIsEvolve pins the serial contract: the walk with
// zero-value island options (the serial search) stays identical when a
// migration cadence is configured but no hook is set (island 0 of a
// 1-island job).
func TestEvolveIslandZeroIsEvolve(t *testing.T) {
	r := searchRunner(t)
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	eo := EvolveOptions{Population: 8, Budget: 40, Seed: 11}

	serial, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: eo})
	if err != nil {
		t.Fatal(err)
	}
	island, err := r.EvolveIsland(space, objs, IslandOptions{
		EvolveOptions: eo, MigrationEvery: 3, MigrationK: 2, // no hook: inert
	})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "island0", serial, island)
}

// TestEvolveIslandOnResultStreams checks the streaming hook delivers
// every result exactly once, in the deterministic batcher request order
// the returned slice uses too.
func TestEvolveIslandOnResultStreams(t *testing.T) {
	r := searchRunner(t)
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	var streamed []int
	results, err := r.EvolveIsland(space, objs, IslandOptions{
		EvolveOptions: EvolveOptions{Population: 8, Budget: 32, Seed: 7},
		OnResult:      func(res Result) { streamed = append(streamed, res.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(results) {
		t.Fatalf("streamed %d results, returned %d", len(streamed), len(results))
	}
	for i, res := range results {
		if streamed[i] != res.Index {
			t.Fatalf("stream order diverges at %d: %d vs %d", i, streamed[i], res.Index)
		}
	}
}

// TestEvolveIslandsDiverge: distinct islands at the same base seed must
// walk different trajectories — the whole point of the seed split.
func TestEvolveIslandsDiverge(t *testing.T) {
	r := searchRunner(t)
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	eo := EvolveOptions{Population: 8, Budget: 40, Seed: 11}

	walk := func(island int) []int {
		t.Helper()
		rs, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: eo, Island: island})
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int, len(rs))
		for i, res := range rs {
			idx[i] = res.Index
		}
		return idx
	}
	a, b := walk(0), walk(1)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("islands 0 and 1 walked identical trajectories")
	}
}

// TestEvolveIslandMigration drives the hook directly: it must fire at
// the configured cadence with a non-empty rank-0 front carrying
// objective values, the injected immigrants must be evaluated, and the
// budget must hold.
func TestEvolveIslandMigration(t *testing.T) {
	r := searchRunner(t)
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	const budget = 48

	var gens []int
	migrant := space.Size() - 1 // a config the small walk is unlikely to reach alone
	results, err := r.EvolveIsland(space, objs, IslandOptions{
		EvolveOptions:  EvolveOptions{Population: 8, Budget: budget, Seed: 11},
		MigrationEvery: 2,
		MigrationK:     3,
		Migrate: func(gen int, front []IslandMember) ([]int, error) {
			gens = append(gens, gen)
			if len(front) == 0 || len(front) > 3 {
				t.Errorf("gen %d: front size %d, want 1..3", gen, len(front))
			}
			for _, m := range front {
				if len(m.Values) != len(objs) {
					t.Errorf("gen %d: member %d carries %d values", gen, m.Index, len(m.Values))
				}
			}
			return []int{migrant}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 {
		t.Fatal("migration hook never fired")
	}
	for i, g := range gens {
		if g%2 != 0 {
			t.Fatalf("hook fired at gen %d, cadence is 2", g)
		}
		if i > 0 && gens[i] <= gens[i-1] {
			t.Fatalf("generations not increasing: %v", gens)
		}
	}
	if len(results) > budget {
		t.Fatalf("evaluated %d > budget %d", len(results), budget)
	}
	found := false
	for _, res := range results {
		if res.Index == migrant {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("injected migrant was never evaluated")
	}

	// Determinism: the same hook responses reproduce the same walk.
	again, err := r.EvolveIsland(space, objs, IslandOptions{
		EvolveOptions:  EvolveOptions{Population: 8, Budget: budget, Seed: 11},
		MigrationEvery: 2,
		MigrationK:     3,
		Migrate: func(gen int, front []IslandMember) ([]int, error) {
			return []int{migrant}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "migrating-replay", results, again)
}
