package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
)

const validSpec = `{
  "name": "spec-test",
  "base": {
    "general": {
      "layer": "main-dram",
      "classes": "single",
      "fit": "first",
      "order": "lifo",
      "links": "single",
      "split": "always",
      "coalesce": "immediate",
      "headers": "btag",
      "growth": "chunk",
      "chunk_bytes": 8192
    }
  },
  "axes": [
    {"name": "fit", "options": [
      {"label": "first", "general": {"fit": "first"}},
      {"label": "best",  "general": {"fit": "best"}}
    ]},
    {"name": "pools", "options": [
      {"label": "none"},
      {"label": "d74", "fixed": [{
        "slot_bytes": 74, "match_lo": 74, "match_hi": 74,
        "layer": "L1-scratchpad", "order": "lifo", "links": "single",
        "growth": "chunk", "chunk_slots": 64, "max_bytes": 16384
      }]}
    ]}
  ]
}`

func TestParseSpaceSpec(t *testing.T) {
	space, err := ParseSpaceSpec([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	if space.Name != "spec-test" || space.Size() != 4 {
		t.Fatalf("space %s size %d", space.Name, space.Size())
	}
	h := memhier.EmbeddedSoC()
	seen := map[string]bool{}
	for i := 0; i < space.Size(); i++ {
		cfg, labels, err := space.Config(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(h); err != nil {
			t.Fatalf("config %d (%v): %v", i, labels, err)
		}
		seen[cfg.ID()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("duplicate configs: %d distinct", len(seen))
	}

	// The fit patch must only change the fit.
	cfg, labels, _ := space.Config(space.Size() - 1) // best + d74
	if labels[0] != "best" || labels[1] != "d74" {
		t.Fatalf("labels %v", labels)
	}
	if cfg.General.Fit.String() != "best" {
		t.Fatalf("fit not patched: %v", cfg.General.Fit)
	}
	if cfg.General.Order.String() != "lifo" || cfg.General.ChunkBytes != 8192 {
		t.Fatal("patch clobbered unrelated fields")
	}
	if len(cfg.Fixed) != 1 || cfg.Fixed[0].SlotBytes != 74 {
		t.Fatalf("fixed pool missing: %+v", cfg.Fixed)
	}
}

func TestParseSpaceSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
	}{
		{"garbage", `{`},
		{"no name", `{"axes":[{"name":"a","options":[{"label":"x"}]}]}`},
		{"no axes", `{"name":"x"}`},
		{"empty axis", `{"name":"x","axes":[{"name":"a"}]}`},
		{"bad patch json", `{"name":"x","axes":[{"name":"a","options":[
			{"label":"x","general":{"fit": 3.14}}]}]}`},
		{"unknown patch field", `{"name":"x","axes":[{"name":"a","options":[
			{"label":"x","general":{"fits":"first"}}]}]}`},
		{"bad enum in patch", `{"name":"x","axes":[{"name":"a","options":[
			{"label":"x","general":{"fit":"bogus"}}]}]}`},
		{"dup labels", `{"name":"x","axes":[{"name":"a","options":[
			{"label":"x"},{"label":"x"}]}]}`},
		{"unknown top field", `{"name":"x","nope":1,"axes":[{"name":"a","options":[{"label":"x"}]}]}`},
	}
	for _, c := range cases {
		if _, err := ParseSpaceSpec([]byte(c.spec)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestLoadSpaceSpec(t *testing.T) {
	space, err := LoadSpaceSpec(strings.NewReader(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	if space.Size() != 4 {
		t.Fatalf("size %d", space.Size())
	}
}

func TestSpaceSpecExplores(t *testing.T) {
	space, err := ParseSpaceSpec([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t)}
	results, err := r.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results %d", len(results))
	}
	for _, res := range results {
		if res.Metrics == nil || res.Metrics.Accesses == 0 {
			t.Fatalf("config %d empty", res.Index)
		}
	}
}

// patchSpec patches the general pool from four axes. Later axes override
// earlier ones' keys, keys differ in case and repeat within one patch,
// and null values must leave their field unchanged.
const patchSpec = `{
  "name": "patch-test",
  "base": {
    "general": {
      "layer": "main-dram", "classes": "single", "fit": "first",
      "order": "lifo", "links": "single", "split": "always",
      "coalesce": "immediate", "headers": "btag", "growth": "chunk",
      "chunk_bytes": 8192
    }
  },
  "axes": [
    {"name": "fit", "options": [
      {"label": "first", "general": {"fit": "first"}},
      {"label": "best", "general": {"fit": "best", "order": "fifo"}},
      {"label": "null", "general": {"fit": null, "links": "double"}}
    ]},
    {"name": "order", "options": [
      {"label": "keep", "general": {"order": null}},
      {"label": "addr", "general": {"order": "addr", "Split": "never", "split": "threshold", "split_threshold": 64}}
    ]},
    {"name": "chunk", "options": [
      {"label": "same"},
      {"label": "16k", "general": {"chunk_bytes": 16384, "fit": null, "round_to_class": true}},
      {"label": "zero", "general": {"chunk_bytes": 0, "FIT": "worst", "classes": "pow2:8:4096", "max_bytes": 65536}}
    ]},
    {"name": "mix", "options": [
      {"label": "none", "general": {}},
      {"label": "d74", "general": {"coalesce": "never", "chunk_bytes": 4096, "coalesce_every": 3}, "fixed": [{
        "slot_bytes": 74, "match_lo": 74, "match_hi": 74,
        "layer": "L1-scratchpad", "order": "lifo", "links": "single",
        "growth": "chunk", "chunk_slots": 64, "max_bytes": 16384
      }]}
    ]}
  ]
}`

// TestSpecPatchesMatchJSONDecode: every configuration of patchSpec
// materializes equal to decoding its options' patches with encoding/json
// onto the base, in axis order.
func TestSpecPatchesMatchJSONDecode(t *testing.T) {
	space, err := ParseSpaceSpec([]byte(patchSpec))
	if err != nil {
		t.Fatal(err)
	}
	var spec SpaceSpec
	if err := json.Unmarshal([]byte(patchSpec), &spec); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < space.Size(); idx++ {
		got, labels, err := space.Config(idx)
		if err != nil {
			t.Fatal(err)
		}
		want := spec.Base
		stride := space.Size()
		for _, ax := range spec.Axes {
			stride /= len(ax.Options)
			opt := ax.Options[idx/stride%len(ax.Options)]
			if opt.General != nil {
				dec := json.NewDecoder(bytes.NewReader(opt.General))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&want.General); err != nil {
					t.Fatal(err)
				}
			}
			want.Fixed = append(want.Fixed, opt.Fixed...)
		}
		if got.General != want.General {
			t.Errorf("config %d %v: general %+v, want %+v", idx, labels, got.General, want.General)
		}
		if len(got.Fixed) != len(want.Fixed) || (len(got.Fixed) > 0 && !reflect.DeepEqual(got.Fixed, want.Fixed)) {
			t.Errorf("config %d %v: fixed %+v, want %+v", idx, labels, got.Fixed, want.Fixed)
		}
	}
}

// TestSpecSpaceConfigAllocs: materializing a spec-defined configuration
// costs no more allocations than a VTCSpace one (its label), because
// the patches were decoded at parse time.
func TestSpecSpaceConfigAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	spec, err := ParseSpaceSpec([]byte(patchSpec))
	if err != nil {
		t.Fatal(err)
	}
	perConfig := func(space *Space) float64 {
		var cfg alloc.Config
		labels := make([]string, len(space.Axes))
		if err := space.configInto(0, &cfg, labels); err != nil { // size the scratch
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			for idx := 0; idx < space.Size(); idx++ {
				if err := space.configInto(idx, &cfg, labels); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(space.Size())
	}
	got, vtc := perConfig(spec), perConfig(VTCSpace())
	if got > vtc {
		t.Fatalf("spec space: %.2f allocations per configuration, VTCSpace %.2f", got, vtc)
	}
}
