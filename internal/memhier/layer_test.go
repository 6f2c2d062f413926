package memhier

import (
	"strings"
	"testing"
)

func validLayer(name string) Layer {
	return Layer{Name: name, Capacity: 1024, ReadEnergy: 1, WriteEnergy: 1, ReadCycles: 1, WriteCycles: 1}
}

func TestLayerValidate(t *testing.T) {
	cases := []struct {
		name  string
		mutic func(*Layer)
		ok    bool
	}{
		{"valid", func(l *Layer) {}, true},
		{"empty name", func(l *Layer) { l.Name = "  " }, false},
		{"negative capacity", func(l *Layer) { l.Capacity = -1 }, false},
		{"negative read energy", func(l *Layer) { l.ReadEnergy = -0.1 }, false},
		{"negative write energy", func(l *Layer) { l.WriteEnergy = -0.1 }, false},
		{"negative read cycles", func(l *Layer) { l.ReadCycles = -1 }, false},
		{"negative write cycles", func(l *Layer) { l.WriteCycles = -1 }, false},
		{"negative leakage", func(l *Layer) { l.LeakagePower = -1 }, false},
		{"unbounded ok", func(l *Layer) { l.Capacity = 0 }, true},
	}
	for _, c := range cases {
		l := validLayer("x")
		c.mutic(&l)
		err := l.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestLayerBounded(t *testing.T) {
	if !validLayer("a").Bounded() {
		t.Fatal("capacity 1024 not bounded")
	}
	l := validLayer("a")
	l.Capacity = 0
	if l.Bounded() {
		t.Fatal("capacity 0 reported bounded")
	}
}

func TestNewHierarchy(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty hierarchy accepted")
	}
	if _, err := New(validLayer("a"), validLayer("a")); err == nil {
		t.Fatal("duplicate layer names accepted")
	}
	bad := validLayer("b")
	bad.ReadEnergy = -1
	if _, err := New(validLayer("a"), bad); err == nil {
		t.Fatal("invalid layer accepted")
	}
	h, err := New(validLayer("a"), validLayer("b"))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLayers() != 2 {
		t.Fatalf("layers %d", h.NumLayers())
	}
}

func TestHierarchyLookup(t *testing.T) {
	h, err := New(validLayer("sp"), validLayer("dram"))
	if err != nil {
		t.Fatal(err)
	}
	id, ok := h.ByName("dram")
	if !ok || id != 1 {
		t.Fatalf("ByName(dram) = %v,%v", id, ok)
	}
	if _, ok := h.ByName("nope"); ok {
		t.Fatal("found nonexistent layer")
	}
	if h.Largest() != 1 {
		t.Fatal("largest wrong")
	}
	if !h.Valid(0) || !h.Valid(1) || h.Valid(2) || h.Valid(-1) {
		t.Fatal("Valid wrong")
	}
	if h.Layer(1).Name != "dram" {
		t.Fatal("Layer(1) wrong")
	}
}

func TestHierarchyLayersIsCopy(t *testing.T) {
	h, _ := New(validLayer("a"))
	ls := h.Layers()
	ls[0].Name = "mutated"
	if h.Layer(0).Name != "a" {
		t.Fatal("Layers() aliases internal state")
	}
}

func TestPresets(t *testing.T) {
	soc := EmbeddedSoC()
	if soc.NumLayers() != 2 {
		t.Fatalf("EmbeddedSoC layers %d", soc.NumLayers())
	}
	sp, ok := soc.ByName(LayerScratchpad)
	if !ok {
		t.Fatal("no scratchpad layer")
	}
	if soc.Layer(sp).Capacity != 64*1024 {
		t.Fatalf("scratchpad capacity %d", soc.Layer(sp).Capacity)
	}
	dram, ok := soc.ByName(LayerDRAM)
	if !ok {
		t.Fatal("no dram layer")
	}
	// Scratchpad must be much cheaper than DRAM in both energy and time.
	if soc.Layer(sp).ReadEnergy*5 > soc.Layer(dram).ReadEnergy {
		t.Fatal("scratchpad/dram energy ratio implausible")
	}
	if soc.Layer(sp).ReadCycles >= soc.Layer(dram).ReadCycles {
		t.Fatal("scratchpad not faster than dram")
	}

	if EmbeddedSoC3Level().NumLayers() != 3 {
		t.Fatal("3-level preset wrong")
	}
	flat := FlatDRAM()
	if flat.NumLayers() != 1 || flat.Layer(0).Bounded() {
		t.Fatal("flat preset wrong")
	}
}

func TestHierarchyString(t *testing.T) {
	s := EmbeddedSoC().String()
	if !strings.Contains(s, LayerScratchpad) || !strings.Contains(s, "64KB") {
		t.Fatalf("string %q", s)
	}
	if !strings.Contains(FlatDRAM().String(), "∞") {
		t.Fatal("unbounded marker missing")
	}
}
