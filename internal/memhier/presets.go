package memhier

import "fmt"

// Preset hierarchies. The per-access energy and latency constants follow
// the published embedded SRAM vs. off-chip SDRAM ratios used in the
// IMEC/DACYA methodology papers (CACTI-style SRAM models, ~0.2-0.4 nJ per
// on-chip scratchpad access, a few nJ plus tens of cycles per external
// SDRAM access). Absolute values are representative, not testbed-exact;
// the reproduction targets trade-off shape, not joules.

// LayerScratchpad and friends name the layers of the preset hierarchies.
const (
	LayerScratchpad = "L1-scratchpad"
	LayerSRAM       = "L2-sram"
	LayerDRAM       = "main-dram"
)

// Preset returns the preset hierarchy the command-line tools and job
// specs name: "soc" (EmbeddedSoC), "soc3" (EmbeddedSoC3Level) or "flat"
// (FlatDRAM).
func Preset(name string) (*Hierarchy, error) {
	switch name {
	case "soc":
		return EmbeddedSoC(), nil
	case "soc3":
		return EmbeddedSoC3Level(), nil
	case "flat":
		return FlatDRAM(), nil
	default:
		return nil, fmt.Errorf("unknown hierarchy %q", name)
	}
}

// EmbeddedSoC returns the platform of the paper's running example: a
// 64 KB L1 software-controlled scratchpad plus 4 MB external SDRAM.
func EmbeddedSoC() *Hierarchy {
	h, err := New(
		Layer{
			Name:         LayerScratchpad,
			Capacity:     64 * 1024,
			ReadEnergy:   0.31,
			WriteEnergy:  0.35,
			ReadCycles:   1,
			WriteCycles:  1,
			LeakagePower: 0.0002,
		},
		Layer{
			Name:        LayerDRAM,
			Capacity:    4 * 1024 * 1024,
			ReadEnergy:  7.9,
			WriteEnergy: 8.4,
			ReadCycles:  16,
			WriteCycles: 18,
		},
	)
	if err != nil {
		panic("memhier: invalid EmbeddedSoC preset: " + err.Error())
	}
	return h
}

// EmbeddedSoC3Level adds a 256 KB on-chip SRAM between scratchpad and
// SDRAM, for the mapping-ablation experiments.
func EmbeddedSoC3Level() *Hierarchy {
	h, err := New(
		Layer{
			Name:         LayerScratchpad,
			Capacity:     64 * 1024,
			ReadEnergy:   0.31,
			WriteEnergy:  0.35,
			ReadCycles:   1,
			WriteCycles:  1,
			LeakagePower: 0.0002,
		},
		Layer{
			Name:         LayerSRAM,
			Capacity:     256 * 1024,
			ReadEnergy:   1.1,
			WriteEnergy:  1.3,
			ReadCycles:   4,
			WriteCycles:  5,
			LeakagePower: 0.0004,
		},
		Layer{
			Name:        LayerDRAM,
			Capacity:    4 * 1024 * 1024,
			ReadEnergy:  7.9,
			WriteEnergy: 8.4,
			ReadCycles:  16,
			WriteCycles: 18,
		},
	)
	if err != nil {
		panic("memhier: invalid EmbeddedSoC3Level preset: " + err.Error())
	}
	return h
}

// FlatDRAM returns a single-layer hierarchy (everything in main memory),
// the baseline an OS-based allocator effectively sees.
func FlatDRAM() *Hierarchy {
	h, err := New(Layer{
		Name:        LayerDRAM,
		Capacity:    0, // unbounded
		ReadEnergy:  7.9,
		WriteEnergy: 8.4,
		ReadCycles:  16,
		WriteCycles: 18,
	})
	if err != nil {
		panic("memhier: invalid FlatDRAM preset: " + err.Error())
	}
	return h
}
