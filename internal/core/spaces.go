package core

import (
	"fmt"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
)

// Case-study exploration spaces. Each function returns the "list of
// arrays" for one application, expressed against the EmbeddedSoC
// hierarchy preset (64 KB scratchpad + SDRAM). The Full variants span the
// complete parameter product the paper's tooling would generate ("tens of
// thousands of highly customized DM allocators"); the narrow variants are
// the curated sub-spaces the benchmark harness sweeps exhaustively.

// baseGeneral returns the general-pool starting point shared by spaces.
func baseGeneral() alloc.GeneralConfig {
	return alloc.GeneralConfig{
		Layer:      memhier.LayerDRAM,
		Classes:    "single",
		Fit:        alloc.FirstFit,
		Order:      alloc.LIFO,
		Links:      alloc.SingleLink,
		Split:      alloc.SplitAlways,
		Coalesce:   alloc.CoalesceImmediate,
		Headers:    alloc.HeaderBoundaryTag,
		Growth:     alloc.GrowFixedChunk,
		ChunkBytes: 8 * 1024,
	}
}

// dedicatedPool builds a dedicated pool serving exactly one block size on
// the given layer.
func dedicatedPool(size int64, layer string, chunkSlots int, maxBytes int64) alloc.FixedConfig {
	return alloc.FixedConfig{
		SlotBytes: size, MatchLo: size, MatchHi: size,
		Layer: layer,
		Order: alloc.LIFO, Links: alloc.SingleLink,
		Growth: alloc.GrowFixedChunk, ChunkSlots: chunkSlots,
		MaxBytes: maxBytes,
	}
}

// mtuPool builds a buffer pool serving the near-MTU band [mtu-200, mtu]
// from mtu-sized slots — O(1) like any fixed pool, but paying internal
// fragmentation on the variable frame sizes it absorbs.
func mtuPool(mtu int64, layer string, chunkSlots int) alloc.FixedConfig {
	return alloc.FixedConfig{
		SlotBytes: mtu, MatchLo: mtu - 200, MatchHi: mtu,
		Layer: layer,
		Order: alloc.LIFO, Links: alloc.SingleLink,
		Growth: alloc.GrowFixedChunk, ChunkSlots: chunkSlots,
	}
}

// poolsAxis enumerates dedicated-pool selections for the dominant sizes
// of a workload: none, each alone, both; the @sp variants additionally
// place the small-block pool on the scratchpad. Dedicated pools reserve
// generously-sized slabs (the embedded practice: provision for the burst
// peak), which buys their O(1) speed at a footprint premium — the
// fast-but-fat end of the trade-off curve.
func poolsAxis(small, large int64) Axis {
	spBudget := int64(48 * 1024) // scratchpad pool budget
	return Axis{
		Name: "pools",
		Options: []Option{
			{Label: "none", Apply: func(c *alloc.Config) {}},
			{Label: fmt.Sprintf("d%d", small), Apply: func(c *alloc.Config) {
				c.Fixed = append(c.Fixed, dedicatedPool(small, memhier.LayerDRAM, 512, 0))
			}},
			{Label: fmt.Sprintf("d%d@sp", small), Apply: func(c *alloc.Config) {
				c.Fixed = append(c.Fixed, dedicatedPool(small, memhier.LayerScratchpad, 512, spBudget))
			}},
			{Label: fmt.Sprintf("d%d+d%d", small, large), Apply: func(c *alloc.Config) {
				c.Fixed = append(c.Fixed,
					dedicatedPool(small, memhier.LayerDRAM, 512, 0),
					mtuPool(large, memhier.LayerDRAM, 128))
			}},
			{Label: fmt.Sprintf("d%d@sp+d%d", small, large), Apply: func(c *alloc.Config) {
				c.Fixed = append(c.Fixed,
					dedicatedPool(small, memhier.LayerScratchpad, 512, spBudget),
					mtuPool(large, memhier.LayerDRAM, 128))
			}},
		},
	}
}

func classesAxis() Axis {
	return Axis{
		Name: "classes",
		Options: []Option{
			// One unsegregated list: slowest searches, tightest packing.
			{Label: "single", Apply: func(c *alloc.Config) { c.General.Classes = "single" }},
			// Segregated storage, Kingsley-style: O(1) bins, up to 2x
			// internal fragmentation.
			{Label: "pow2", Apply: func(c *alloc.Config) {
				c.General.Classes = "pow2:16:65536"
				c.General.RoundToClass = true
			}},
			// Segregated storage with fine classes: fast bins, bounded
			// per-block waste, but memory strands in per-size islands.
			{Label: "linear", Apply: func(c *alloc.Config) {
				c.General.Classes = "linear:64:2048"
				c.General.RoundToClass = true
			}},
			// Segregated fit, dlmalloc-style: variable blocks indexed by
			// size range.
			{Label: "segfit", Apply: func(c *alloc.Config) { c.General.Classes = "pow2:16:65536" }},
			// Binary-buddy system: O(log n) with pow2 fragmentation.
			{Label: "buddy", Apply: func(c *alloc.Config) { c.General.Classes = "buddy:64:65536" }},
		},
	}
}

func fitAxis() Axis {
	mk := func(f alloc.FitPolicy) Option {
		return Option{Label: f.String(), Apply: func(c *alloc.Config) { c.General.Fit = f }}
	}
	return Axis{Name: "fit", Options: []Option{
		mk(alloc.FirstFit), mk(alloc.NextFit), mk(alloc.BestFit), mk(alloc.WorstFit),
	}}
}

func orderAxis() Axis {
	mk := func(o alloc.ListOrder) Option {
		return Option{Label: o.String(), Apply: func(c *alloc.Config) { c.General.Order = o }}
	}
	return Axis{Name: "order", Options: []Option{mk(alloc.LIFO), mk(alloc.FIFO), mk(alloc.AddrOrder)}}
}

func linksAxis() Axis {
	mk := func(l alloc.ListLinks) Option {
		return Option{Label: l.String(), Apply: func(c *alloc.Config) { c.General.Links = l }}
	}
	return Axis{Name: "links", Options: []Option{mk(alloc.SingleLink), mk(alloc.DoubleLink)}}
}

func coalesceAxis() Axis {
	return Axis{Name: "coalesce", Options: []Option{
		{Label: "never", Apply: func(c *alloc.Config) { c.General.Coalesce = alloc.CoalesceNever }},
		{Label: "immediate", Apply: func(c *alloc.Config) { c.General.Coalesce = alloc.CoalesceImmediate }},
		{Label: "deferred", Apply: func(c *alloc.Config) {
			c.General.Coalesce = alloc.CoalesceDeferred
			c.General.CoalesceEvery = 32
		}},
	}}
}

func splitAxis() Axis {
	return Axis{Name: "split", Options: []Option{
		{Label: "never", Apply: func(c *alloc.Config) { c.General.Split = alloc.SplitNever }},
		{Label: "always", Apply: func(c *alloc.Config) { c.General.Split = alloc.SplitAlways }},
		{Label: "thresh", Apply: func(c *alloc.Config) {
			c.General.Split = alloc.SplitThreshold
			c.General.SplitThreshold = 128
		}},
	}}
}

// reclaimAxis toggles chunk reclamation on every dedicated pool.
func reclaimAxis() Axis {
	return Axis{Name: "reclaim", Options: []Option{
		{Label: "keep", Apply: func(c *alloc.Config) {}},
		{Label: "reclaim", Apply: func(c *alloc.Config) {
			for i := range c.Fixed {
				c.Fixed[i].Reclaim = true
			}
		}},
	}}
}

func headersAxis() Axis {
	return Axis{Name: "headers", Options: []Option{
		{Label: "minimal", Apply: func(c *alloc.Config) { c.General.Headers = alloc.HeaderMinimal }},
		{Label: "btag", Apply: func(c *alloc.Config) { c.General.Headers = alloc.HeaderBoundaryTag }},
	}}
}

func growthAxis() Axis {
	return Axis{Name: "growth", Options: []Option{
		{Label: "chunk8k", Apply: func(c *alloc.Config) {
			c.General.Growth = alloc.GrowFixedChunk
			c.General.ChunkBytes = 8 * 1024
		}},
		{Label: "chunk64k", Apply: func(c *alloc.Config) {
			c.General.Growth = alloc.GrowFixedChunk
			c.General.ChunkBytes = 64 * 1024
		}},
		{Label: "double", Apply: func(c *alloc.Config) {
			c.General.Growth = alloc.GrowDouble
			c.General.ChunkBytes = 8 * 1024
		}},
	}}
}

// WorkloadSpace returns the shipped space of the given kind ("narrow" or
// "full") for a generated workload: the curated EasyportSpace or
// VTCSpace, or the full Easyport product, which applies to any workload.
func WorkloadSpace(workloadName, kind string) (*Space, error) {
	switch workloadName + "/" + kind {
	case "easyport/narrow", "synthetic/narrow":
		return EasyportSpace(), nil
	case "easyport/full", "synthetic/full", "vtc/full":
		return FullEasyportSpace(), nil
	case "vtc/narrow":
		return VTCSpace(), nil
	default:
		return nil, fmt.Errorf("no %s space for workload %s", kind, workloadName)
	}
}

// FullEasyportSpace is the complete parameter product for the Easyport
// case study: 5·2·5·4·3·2·3·3·2·3 = 64,800 configurations (experiment E5's
// "tens of thousands").
func FullEasyportSpace() *Space {
	return &Space{
		Name: "easyport-full",
		Base: alloc.Config{General: baseGeneral()},
		Axes: []Axis{
			poolsAxis(74, 1500),
			reclaimAxis(),
			classesAxis(),
			fitAxis(),
			orderAxis(),
			linksAxis(),
			coalesceAxis(),
			splitAxis(),
			headersAxis(),
			growthAxis(),
		},
	}
}

// EasyportSpace is the curated sub-space the benchmark harness sweeps
// exhaustively (E1-E3, F1): the axes that move the Easyport metrics most,
// 5·4·2·2·2·2·2 = 640 configurations.
func EasyportSpace() *Space {
	return &Space{
		Name: "easyport",
		Base: alloc.Config{General: baseGeneral()},
		Axes: []Axis{
			poolsAxis(74, 1500),
			{Name: "classes", Options: classesAxis().Options[:4]},                              // single, pow2, linear, segfit
			{Name: "fit", Options: []Option{fitAxis().Options[0], fitAxis().Options[2]}},       // first, best
			{Name: "order", Options: []Option{orderAxis().Options[0], orderAxis().Options[2]}}, // lifo, addr
			{Name: "coalesce", Options: coalesceAxis().Options[:2]},
			{Name: "split", Options: splitAxis().Options[:2]},
			{Name: "growth", Options: []Option{growthAxis().Options[0], growthAxis().Options[2]}}, // chunk16k, double
		},
	}
}

// VTCSpace is the curated sub-space for the MPEG-4 VTC case study (E4).
// VTC's dominant small sizes are the zerotree node records; its large
// buffers stay in DRAM. 4·3·2·2·3·2 = 288 configurations.
func VTCSpace() *Space {
	spBudget := int64(40 * 1024)
	pools := Axis{
		Name: "pools",
		Options: []Option{
			{Label: "none", Apply: func(c *alloc.Config) {}},
			{Label: "dnodes", Apply: func(c *alloc.Config) {
				c.Fixed = append(c.Fixed,
					alloc.FixedConfig{SlotBytes: 64, MatchLo: 17, MatchHi: 64,
						Layer: memhier.LayerDRAM, Order: alloc.LIFO, Links: alloc.SingleLink,
						Growth: alloc.GrowFixedChunk, ChunkSlots: 128})
			}},
			{Label: "dnodes@sp", Apply: func(c *alloc.Config) {
				c.Fixed = append(c.Fixed,
					alloc.FixedConfig{SlotBytes: 64, MatchLo: 17, MatchHi: 64,
						Layer: memhier.LayerScratchpad, Order: alloc.LIFO, Links: alloc.SingleLink,
						Growth: alloc.GrowFixedChunk, ChunkSlots: 128, MaxBytes: spBudget})
			}},
			{Label: "dnodes@sp+d16", Apply: func(c *alloc.Config) {
				c.Fixed = append(c.Fixed,
					alloc.FixedConfig{SlotBytes: 16, MatchLo: 1, MatchHi: 16,
						Layer: memhier.LayerScratchpad, Order: alloc.LIFO, Links: alloc.SingleLink,
						Growth: alloc.GrowFixedChunk, ChunkSlots: 128, MaxBytes: 16 * 1024},
					alloc.FixedConfig{SlotBytes: 64, MatchLo: 17, MatchHi: 64,
						Layer: memhier.LayerScratchpad, Order: alloc.LIFO, Links: alloc.SingleLink,
						Growth: alloc.GrowFixedChunk, ChunkSlots: 128, MaxBytes: spBudget})
			}},
		},
	}
	return &Space{
		Name: "vtc",
		Base: alloc.Config{General: baseGeneral()},
		Axes: []Axis{
			pools,
			{Name: "classes", Options: classesAxis().Options[:3]},
			{Name: "fit", Options: fitAxis().Options[:2]},
			{Name: "coalesce", Options: coalesceAxis().Options[:2]},
			splitAxis(),
			{Name: "growth", Options: []Option{growthAxis().Options[0], growthAxis().Options[1]}},
		},
	}
}
