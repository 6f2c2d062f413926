package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/stats"
)

// fmtFixedID and fmtGeneralID are the configuration IDs as fmt.Fprintf
// formats them, the reference alloc's strconv-built IDs must equal.
func fmtFixedID(c alloc.Config) string {
	var b strings.Builder
	for _, f := range c.Fixed {
		fmt.Fprintf(&b, "F%d@%s[%d-%d]%s%s%s×%d/%d",
			f.SlotBytes, f.Layer, f.MatchLo, f.MatchHi,
			f.Order, f.Links, f.Growth, f.ChunkSlots, f.MaxBytes)
		if f.Reclaim {
			b.WriteString("r")
		}
		b.WriteString("|")
	}
	return b.String()
}

func fmtGeneralID(g alloc.GeneralConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "G@%s:%s:%s:%s:%s:%s%d:%s%d:%s:%s:%d/%d",
		g.Layer, g.Classes, g.Fit, g.Order, g.Links,
		g.Split, g.SplitThreshold, g.Coalesce, g.CoalesceEvery,
		g.Headers, g.Growth, g.ChunkBytes, g.MaxBytes)
	if g.RoundToClass {
		b.WriteString(":round")
	}
	return b.String()
}

// TestConfigIDMatchesFmt holds Config.ID, FixedID and GeneralConfig.ID
// to the bytes fmt formats, over every configuration of the shipped
// spaces (every store key and journal record is keyed by them), plus an
// out-of-range policy value and an empty configuration. Each ID is one
// allocation: its string.
func TestConfigIDMatchesFmt(t *testing.T) {
	check := func(cfg alloc.Config) {
		t.Helper()
		fixed, general := fmtFixedID(cfg), fmtGeneralID(cfg.General)
		if got := cfg.ID(); got != fixed+general {
			t.Fatalf("ID %q, fmt formats %q", got, fixed+general)
		}
		if got := cfg.FixedID(); got != fixed {
			t.Fatalf("FixedID %q, fmt formats %q", got, fixed)
		}
		if got := cfg.General.ID(); got != general {
			t.Fatalf("GeneralConfig.ID %q, fmt formats %q", got, general)
		}
	}
	for _, space := range []*Space{VTCSpace(), EasyportSpace(), FullEasyportSpace()} {
		for i := 0; i < space.Size(); i++ {
			cfg, _, err := space.Config(i)
			if err != nil {
				t.Fatal(err)
			}
			check(cfg)
		}
	}
	last, _, err := VTCSpace().Config(VTCSpace().Size() - 1)
	if err != nil {
		t.Fatal(err)
	}
	odd := last
	odd.Fixed = slices.Clone(last.Fixed)
	odd.Fixed[0].Order = alloc.ListOrder(42)
	odd.General.Fit = alloc.FitPolicy(-1)
	odd.General.MaxBytes = -7
	check(odd)
	check(alloc.Config{})

	if testing.Short() {
		return
	}
	if n := testing.AllocsPerRun(100, func() { _ = last.ID() }); n != 1 {
		t.Errorf("Config.ID allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = last.FixedID() }); n != 1 {
		t.Errorf("Config.FixedID allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = last.General.ID() }); n != 1 {
		t.Errorf("GeneralConfig.ID allocates %.0f times, want 1", n)
	}
}

// TestPoolRunKeyMatchesFmt pins the pool-run memo key to the bytes fmt's
// "%x/%d/<general ID>" gives, for every general pool of the shipped
// spaces, hashes of every length and op counts of every length: the
// three parts stay apart, so distinct (hash, ops, pool) triples never
// share a key.
func TestPoolRunKeyMatchesFmt(t *testing.T) {
	hashes := []uint64{0, 1, 0xf, 0xabc, 0x0123456789abcdef, 0xfedcba9876543210, ^uint64(0)}
	rng := stats.NewRNG(3)
	for range 20 {
		hashes = append(hashes, rng.Uint64()>>(rng.Intn(64)))
	}
	opCounts := []int{0, 7, 12345, 1 << 40}
	seen := make(map[string]bool)
	for _, space := range []*Space{VTCSpace(), EasyportSpace(), FullEasyportSpace()} {
		for i := 0; i < space.Size(); i++ {
			cfg, _, err := space.Config(i)
			if err != nil {
				t.Fatal(err)
			}
			id := cfg.General.ID()
			if seen[id] {
				continue
			}
			seen[id] = true
			for _, h := range hashes {
				for _, ops := range opCounts {
					want := fmt.Sprintf("%x/%d/%s", h, ops, id)
					if got := string(appendPoolRunKey(nil, h, ops, cfg.General)); got != want {
						t.Fatalf("pool-run key %q, fmt formats %q", got, want)
					}
				}
			}
		}
	}
}
