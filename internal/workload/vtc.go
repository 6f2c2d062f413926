package workload

import (
	"fmt"

	"dmexplore/internal/stats"
	"dmexplore/internal/trace"
)

// VTCParams parameterizes the multimedia workload modelled on the MPEG-4
// Visual Texture deCoder (still-texture wavelet decoding).
//
// The allocation profile the generator reproduces:
//
//   - Phase structure: per decoded tile, a bitstream buffer and per-level
//     wavelet subband arrays are allocated, used heavily, and freed at
//     phase end (phase-correlated lifetimes).
//   - A churn of small zerotree-node allocations during coefficient
//     decoding: many sizes in the tens of bytes, very short-lived.
//   - Large output texture buffers that outlive their tile (a short
//     display queue).
//   - Heavy arithmetic (inverse wavelet transform) between memory phases:
//     most of the execution time is CPU work, so allocator choice moves
//     energy much more than time — the 82.4% vs 5.4% asymmetry of the
//     paper's VTC results.
type VTCParams struct {
	Seed  uint64
	Tiles int // texture tiles to decode

	Levels     int // wavelet decomposition levels
	TileDim    int // tile dimension in pixels (square tiles)
	QueueDepth int // decoded tiles kept alive (display queue)

	NodesPerTile   int    // zerotree node churn per tile
	CyclesPerPixel uint64 // inverse-transform CPU cost
}

// DefaultVTCParams returns the calibrated defaults used by the
// experiments (see EXPERIMENTS.md).
func DefaultVTCParams() VTCParams {
	return VTCParams{
		Seed:           1,
		Tiles:          96,
		Levels:         4,
		TileDim:        64,
		QueueDepth:     2,
		NodesPerTile:   400,
		CyclesPerPixel: 700,
	}
}

// Name implements Generator.
func (p VTCParams) Name() string { return "vtc" }

// Validate reports parameter errors.
func (p VTCParams) Validate() error {
	if p.Tiles <= 0 {
		return fmt.Errorf("workload: vtc needs tiles > 0")
	}
	if p.Levels < 1 || p.Levels > 8 {
		return fmt.Errorf("workload: vtc levels %d out of range", p.Levels)
	}
	if p.TileDim < 8 || p.TileDim > 1024 {
		return fmt.Errorf("workload: vtc tile dim %d out of range", p.TileDim)
	}
	if p.QueueDepth < 1 || p.NodesPerTile < 0 {
		return fmt.Errorf("workload: vtc queue/nodes params invalid")
	}
	return nil
}

// events returns the number of events Generate emits, which its
// parameters fix: every random draw picks a size, an ID or when a node
// dies, never whether an event happens.
func (p VTCParams) events() int {
	subbands := 3*p.Levels + 1
	// Per tile: the bitstream's alloc and fill, each subband's alloc,
	// read-back and free, six events per zerotree node (alloc, three
	// accesses, tick, free), the two model touches, and the output's
	// alloc and write, the transform tick and the bitstream free.
	perTile := 2 + 3*subbands + 6*p.NodesPerTile + 2 + 4
	queued := min(p.Tiles, p.QueueDepth)
	// The tables' allocs and fills and their frees, a scan-out read and
	// free per dequeued texture, and the final frees of the queue.
	return 4 + 2 + p.Tiles*perTile + 2*(p.Tiles-queued) + queued
}

// zerotree node sizes (bytes): decoder bookkeeping structures.
var vtcNodeSizes = []int64{24, 40, 56, 64}

// Generate implements Generator.
func (p VTCParams) Generate() (*trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(p.Seed)
	b := trace.NewBuilder(fmt.Sprintf("vtc[t=%d,seed=%d]", p.Tiles, p.Seed))
	b.Grow(p.events())

	// Decoder-lifetime tables: quantization and Huffman/arith models.
	quant := b.Alloc(2048)
	b.Access(quant, 0, 256)
	model := b.Alloc(4096)
	b.Access(model, 0, 512)

	pixels := int64(p.TileDim) * int64(p.TileDim)
	var displayQueue []uint64

	for tile := 0; tile < p.Tiles; tile++ {
		// Bitstream buffer: compressed size varies around pixels/4 bytes.
		bsSize := int64(rng.Normal(float64(pixels)/4, float64(pixels)/16))
		if bsSize < 512 {
			bsSize = 512
		}
		bs := b.Alloc(bsSize)
		b.Access(bs, 0, uint64(bsSize+7)/8) // fill from input

		// Subband coefficient arrays per decomposition level. Level l
		// covers (dim>>l)^2 coefficients × 2 bytes, three subbands plus
		// one LL band at the coarsest level.
		var subbands []uint64
		for l := 1; l <= p.Levels; l++ {
			side := int64(p.TileDim >> l)
			if side < 1 {
				side = 1
			}
			sbSize := side * side * 2
			bands := 3
			if l == p.Levels {
				bands = 4
			}
			for s := 0; s < bands; s++ {
				id := b.Alloc(sbSize)
				subbands = append(subbands, id)
			}
		}

		// Zerotree decoding: churn of short-lived nodes interleaved with
		// bitstream reads and coefficient writes.
		var nodes []uint64
		for n := 0; n < p.NodesPerTile; n++ {
			id := b.Alloc(vtcNodeSizes[rng.Intn(len(vtcNodeSizes))])
			b.Access(id, 2, 3)
			nodes = append(nodes, id)
			b.Access(bs, 4, 0) // bitstream read
			if len(subbands) > 0 {
				b.Access(subbands[rng.Intn(len(subbands))], 1, 2)
			}
			// Most nodes die quickly; a fraction persists to tile end.
			if len(nodes) > 4 && rng.Bool(0.8) {
				k := rng.Intn(len(nodes))
				b.Free(nodes[k])
				nodes = append(nodes[:k], nodes[k+1:]...)
			}
			b.Tick(30)
		}
		// Model adaptation touches.
		b.Access(model, 32, 8)
		b.Access(quant, 16, 0)

		// Inverse wavelet transform: read every subband, write the
		// output texture, heavy CPU work.
		out := b.Alloc(pixels) // 8bpp output texture
		for _, sb := range subbands {
			b.Access(sb, 64, 16)
		}
		b.Access(out, 0, uint64(pixels+7)/8)
		b.Tick(uint64(pixels) * p.CyclesPerPixel)

		// Tile teardown: nodes, subbands, bitstream die with the phase.
		for _, id := range nodes {
			b.Free(id)
		}
		for _, id := range subbands {
			b.Free(id)
		}
		b.Free(bs)

		// Display queue keeps the last QueueDepth textures alive.
		displayQueue = append(displayQueue, out)
		if len(displayQueue) > p.QueueDepth {
			old := displayQueue[0]
			displayQueue = displayQueue[1:]
			b.Access(old, uint64(pixels+7)/8, 0) // scan-out read
			b.Free(old)
		}
	}

	for _, out := range displayQueue {
		b.Free(out)
	}
	b.Free(model)
	b.Free(quant)
	return b.Build(), nil
}
