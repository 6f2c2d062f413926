// Package memhier models the target platform's memory hierarchy: the
// ordered set of physical memories (scratchpads, on-chip SRAM, off-chip
// SDRAM) that dynamic-memory pools can be mapped onto, together with the
// per-access energy and latency cost model used to turn profiled access
// counts into energy and execution-time estimates.
//
// The paper maps allocator pools onto hierarchy layers explicitly ("a
// dedicated pool for 74-byte blocks must be placed onto the L1 64 KB
// scratchpad memory, while a general pool and a dedicated pool for
// 1500-byte blocks must use the 4 MB main memory") and reports metrics per
// layer. This package provides exactly that facility for the simulator.
package memhier

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// LayerID identifies a layer within a Hierarchy by index, ordered from the
// closest/cheapest memory (index 0) to the furthest/most expensive.
type LayerID int

// Layer describes one physical memory in the hierarchy and its access
// cost model. Energy is in nanojoules per word access; latency in CPU
// cycles per word access. Capacity is in bytes; a Capacity of 0 means
// unbounded (useful for modelling large external DRAM).
type Layer struct {
	Name        string
	Capacity    int64   // bytes; 0 = unbounded
	ReadEnergy  float64 // nJ per word read
	WriteEnergy float64 // nJ per word write
	ReadCycles  int64   // CPU cycles per word read
	WriteCycles int64   // CPU cycles per word write
	// LeakagePower is the static power in nJ per kilocycle per KB of
	// capacity actually reserved; it lets energy depend (weakly) on both
	// footprint and runtime, as in SRAM leakage models.
	LeakagePower float64
}

// Validate reports whether the layer's cost model is self-consistent.
func (l Layer) Validate() error {
	if strings.TrimSpace(l.Name) == "" {
		return fmt.Errorf("memhier: layer has empty name")
	}
	if l.Capacity < 0 {
		return fmt.Errorf("memhier: layer %s has negative capacity %d", l.Name, l.Capacity)
	}
	if l.ReadEnergy < 0 || l.WriteEnergy < 0 {
		return fmt.Errorf("memhier: layer %s has negative access energy", l.Name)
	}
	if l.ReadCycles < 0 || l.WriteCycles < 0 {
		return fmt.Errorf("memhier: layer %s has negative access latency", l.Name)
	}
	if l.LeakagePower < 0 {
		return fmt.Errorf("memhier: layer %s has negative leakage", l.Name)
	}
	return nil
}

// Bounded reports whether the layer has a finite capacity.
func (l Layer) Bounded() bool { return l.Capacity > 0 }

// Hierarchy is an ordered list of layers, cheapest first. The zero value
// is an empty hierarchy; use New or a preset constructor.
type Hierarchy struct {
	layers []Layer
}

// New builds a hierarchy from the given layers (cheapest first). Layer
// names must be unique.
func New(layers ...Layer) (*Hierarchy, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("memhier: hierarchy needs at least one layer")
	}
	seen := make(map[string]bool, len(layers))
	for _, l := range layers {
		if err := l.Validate(); err != nil {
			return nil, err
		}
		if seen[l.Name] {
			return nil, fmt.Errorf("memhier: duplicate layer name %q", l.Name)
		}
		seen[l.Name] = true
	}
	h := &Hierarchy{layers: make([]Layer, len(layers))}
	copy(h.layers, layers)
	return h, nil
}

// NumLayers returns the number of layers.
func (h *Hierarchy) NumLayers() int { return len(h.layers) }

// Layer returns the layer with the given id. It panics on out-of-range
// ids; ids always originate from the same hierarchy in correct programs.
func (h *Hierarchy) Layer(id LayerID) Layer {
	return h.layers[id]
}

// Layers returns a copy of the ordered layer list.
func (h *Hierarchy) Layers() []Layer {
	out := make([]Layer, len(h.layers))
	copy(out, h.layers)
	return out
}

// ByName returns the id of the layer with the given name.
func (h *Hierarchy) ByName(name string) (LayerID, bool) {
	for i, l := range h.layers {
		if l.Name == name {
			return LayerID(i), true
		}
	}
	return 0, false
}

// Cheapest returns the id of the first (cheapest) layer.
func (h *Hierarchy) Cheapest() LayerID { return 0 }

// Largest returns the id of the last layer, conventionally the main
// memory, which presets model as unbounded.
func (h *Hierarchy) Largest() LayerID { return LayerID(len(h.layers) - 1) }

// Valid reports whether id refers to a layer of h.
func (h *Hierarchy) Valid(id LayerID) bool {
	return id >= 0 && int(id) < len(h.layers)
}

// Fingerprint identifies the hierarchy's complete cost model: an FNV-1a
// hash over every field of every layer, in order. Hierarchies that
// differ in any capacity, energy, latency or leakage constant have
// different fingerprints, unlike String, which shows only names and
// capacities. Persisted results are keyed on it.
func (h *Hierarchy) Fingerprint() string {
	f := fnv.New64a()
	fmt.Fprintf(f, "%#v", h.layers)
	return fmt.Sprintf("%016x", f.Sum64())
}

// String renders a one-line description of the hierarchy.
func (h *Hierarchy) String() string {
	parts := make([]string, len(h.layers))
	for i, l := range h.layers {
		cap := "∞"
		if l.Bounded() {
			cap = fmt.Sprintf("%dKB", l.Capacity/1024)
		}
		parts[i] = fmt.Sprintf("%s(%s)", l.Name, cap)
	}
	return strings.Join(parts, " → ")
}
