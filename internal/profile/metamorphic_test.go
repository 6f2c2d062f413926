package profile

import (
	"math"
	"testing"

	"dmexplore/internal/memhier"
)

// scaledLayerEnergy returns h with layer id's read and write energies
// multiplied by k.
func scaledLayerEnergy(t *testing.T, h *memhier.Hierarchy, id memhier.LayerID, k float64) *memhier.Hierarchy {
	t.Helper()
	layers := h.Layers()
	layers[id].ReadEnergy *= k
	layers[id].WriteEnergy *= k
	scaled, err := memhier.New(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return scaled
}

// TestEnergyScalesWithLayerConstants is a metamorphic check of the cost
// model: multiplying one EmbeddedSoC layer's read and write energies by
// k must leave every counter, the cycles and the per-layer peaks
// bit-identical, and move EnergyNJ by exactly that layer's dynamic
// energy times k-1. It holds for full replays and for composed
// (partition plus pool run) evaluations alike.
func TestEnergyScalesWithLayerConstants(t *testing.T) {
	ct := easyportCompiled(t, 300)
	h := memhier.EmbeddedSoC()
	rep := NewReplayer()
	for id := memhier.LayerID(0); int(id) < h.NumLayers(); id++ {
		for _, k := range []float64{0, 0.5, 3, 17.25} {
			hk := scaledLayerEnergy(t, h, id, k)
			layer := h.Layer(id)
			check := func(path string, base, scaled *Metrics) {
				t.Helper()
				if base.Accesses != scaled.Accesses || base.FootprintBytes != scaled.FootprintBytes ||
					base.Cycles != scaled.Cycles || base.Mallocs != scaled.Mallocs ||
					base.Frees != scaled.Frees || base.Failures != scaled.Failures ||
					base.PeakRequestedBytes != scaled.PeakRequestedBytes {
					t.Fatalf("%s layer %s ×%g: counters moved: %+v vs %+v", path, layer.Name, k, base, scaled)
				}
				for i := range base.PerLayer {
					if base.PerLayer[i] != scaled.PerLayer[i] {
						t.Fatalf("%s layer %s ×%g: layer %d moved: %+v vs %+v",
							path, layer.Name, k, i, base.PerLayer[i], scaled.PerLayer[i])
					}
				}
				l := base.PerLayer[id]
				dynamic := float64(l.Reads)*layer.ReadEnergy + float64(l.Writes)*layer.WriteEnergy
				want := base.EnergyNJ + dynamic*(k-1)
				if diff := math.Abs(scaled.EnergyNJ - want); diff > 1e-12*math.Max(math.Abs(want), math.Abs(base.EnergyNJ)) {
					t.Fatalf("%s layer %s ×%g: energy %v, want %v (diff %g)",
						path, layer.Name, k, scaled.EnergyNJ, want, diff)
				}
			}
			composed := 0
			for _, cfg := range incrementalConfigs() {
				base, err := rep.Run(ct, cfg, h, Options{})
				if err != nil {
					t.Fatalf("%s: %v", cfg.Label, err)
				}
				scaled, err := rep.Run(ct, cfg, hk, Options{})
				if err != nil {
					t.Fatalf("%s: %v", cfg.Label, err)
				}
				check(cfg.Label+" full", base, scaled)

				part, err := rep.Partition(ct, cfg, h)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Label, err)
				}
				partK, err := rep.Partition(ct, cfg, hk)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Label, err)
				}
				pm, ok := runPartial(rep, ct, part, cfg, h)
				pmK, okK := runPartial(rep, ct, partK, cfg, hk)
				if ok != okK {
					t.Fatalf("%s layer %s ×%g: composition accepted %v, scaled %v", cfg.Label, layer.Name, k, ok, okK)
				}
				if ok {
					composed++
					check(cfg.Label+" composed", pm, pmK)
				}
			}
			if composed == 0 {
				t.Fatalf("layer %s ×%g: no configuration composed", layer.Name, k)
			}
		}
	}
}
