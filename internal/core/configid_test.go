package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dmexplore/internal/alloc"
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
