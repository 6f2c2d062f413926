package alloc_test

import (
	"fmt"
	"log"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/simheap"
)

// Build a custom allocator — a dedicated 74-byte pool on the scratchpad
// over a Kingsley-style general pool — and run a few operations on the
// simulated heap.
func ExampleConfig_Build() {
	hier := memhier.EmbeddedSoC()
	ctx := simheap.NewContext(hier)

	cfg := alloc.Config{
		Label: "example",
		Fixed: []alloc.FixedConfig{{
			SlotBytes: 74, MatchLo: 74, MatchHi: 74,
			Layer: memhier.LayerScratchpad,
			Order: alloc.LIFO, Links: alloc.SingleLink,
			Growth: alloc.GrowFixedChunk, ChunkSlots: 32, MaxBytes: 16 * 1024,
		}},
		General: alloc.GeneralConfig{
			Layer: memhier.LayerDRAM, Classes: "pow2:16:65536", RoundToClass: true,
			Fit: alloc.FirstFit, Order: alloc.LIFO, Links: alloc.SingleLink,
			Split: alloc.SplitNever, Coalesce: alloc.CoalesceNever,
			Headers: alloc.HeaderMinimal, Growth: alloc.GrowFixedChunk,
			ChunkBytes: 8 * 1024,
		},
	}
	a, err := cfg.Build(ctx, nil)
	if err != nil {
		log.Fatal(err)
	}

	control, _ := a.Malloc(74) // routed to the scratchpad pool
	frame, _ := a.Malloc(1500) // falls through to the DRAM general pool
	fmt.Println("control on layer", control.Layer)
	fmt.Println("frame on layer", frame.Layer)

	fmt.Println("free control:", a.Free(control))
	fmt.Println("free frame:", a.Free(frame))
	fmt.Println("free frame again:", a.Free(frame))
	// Output:
	// control on layer 0
	// frame on layer 1
	// free control: <nil>
	// free frame: <nil>
	// free frame again: alloc: bad free: layer 1 addr 0x140
}

// The classic OS allocators are presets of the same framework.
func ExampleKingsleyConfig() {
	cfg := alloc.KingsleyConfig(memhier.LayerDRAM)
	fmt.Println(cfg.Label, cfg.General.Classes, cfg.General.RoundToClass)
	// Output: kingsley pow2:16:65536 true
}
