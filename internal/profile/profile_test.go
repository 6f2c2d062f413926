package profile

import (
	"bytes"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

func smallEasyport(t *testing.T) *trace.Trace {
	t.Helper()
	p := workload.DefaultEasyportParams()
	p.Packets = 1500
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunBaselineOnEasyport(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	m, err := Run(tr, alloc.LeaConfig(memhier.LayerDRAM), h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Feasible() {
		t.Fatalf("lea infeasible: %d failures", m.Failures)
	}
	prof := trace.Analyze(tr)
	if m.Mallocs != uint64(prof.Allocs) || m.Frees != uint64(prof.Frees) {
		t.Fatalf("op counts %d/%d vs %d/%d", m.Mallocs, m.Frees, prof.Allocs, prof.Frees)
	}
	if m.Accesses == 0 || m.EnergyNJ <= 0 || m.Cycles == 0 {
		t.Fatalf("empty metrics %+v", m)
	}
	if m.FootprintBytes < m.PeakRequestedBytes {
		t.Fatalf("footprint %d below peak demand %d", m.FootprintBytes, m.PeakRequestedBytes)
	}
	if m.FootprintOverhead() < 1 {
		t.Fatalf("footprint overhead %v < 1", m.FootprintOverhead())
	}
	if len(m.PerLayer) != h.NumLayers() {
		t.Fatalf("per-layer entries %d", len(m.PerLayer))
	}
	var sum uint64
	for _, lm := range m.PerLayer {
		sum += lm.Accesses()
	}
	if sum != m.Accesses {
		t.Fatalf("per-layer accesses %d != total %d", sum, m.Accesses)
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	cfg := alloc.KingsleyConfig(memhier.LayerDRAM)
	a, err := Run(tr, cfg, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, cfg, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Accesses != b.Accesses || a.FootprintBytes != b.FootprintBytes ||
		a.EnergyNJ != b.EnergyNJ || a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestRunCustomConfigUsesScratchpad(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	custom := alloc.Config{
		Label: "custom",
		Fixed: []alloc.FixedConfig{{
			SlotBytes: 74, MatchLo: 74, MatchHi: 74,
			Layer: memhier.LayerScratchpad,
			Order: alloc.LIFO, Links: alloc.SingleLink,
			Growth: alloc.GrowFixedChunk, ChunkSlots: 64,
			MaxBytes: 24 * 1024,
		}},
		General: alloc.GeneralConfig{
			Layer: memhier.LayerDRAM, Classes: "pow2:16:65536",
			Fit: alloc.FirstFit, Order: alloc.LIFO, Links: alloc.SingleLink,
			Split: alloc.SplitAlways, Coalesce: alloc.CoalesceImmediate,
			Headers: alloc.HeaderBoundaryTag, Growth: alloc.GrowFixedChunk,
			ChunkBytes: 64 * 1024,
		},
	}
	m, err := Run(tr, custom, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Feasible() {
		t.Fatalf("custom config infeasible: %d failures", m.Failures)
	}
	sp := m.PerLayer[0]
	if sp.Name != memhier.LayerScratchpad {
		t.Fatalf("layer order: %s", sp.Name)
	}
	if sp.Accesses() == 0 || sp.PeakBytes == 0 {
		t.Fatal("scratchpad unused by custom config")
	}

	// And the custom config must beat the DRAM-only baseline on energy:
	// the dominant 74-byte traffic moved to the cheap layer.
	base, err := Run(tr, alloc.KingsleyConfig(memhier.LayerDRAM), h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.EnergyNJ >= base.EnergyNJ {
		t.Fatalf("custom energy %v not below baseline %v", m.EnergyNJ, base.EnergyNJ)
	}
}

func TestRunInfeasibleConfigCountsFailures(t *testing.T) {
	// Force the general pool into a tiny budget: allocations must fail
	// but the run must complete.
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	cfg := alloc.KingsleyConfig(memhier.LayerDRAM)
	cfg.General.MaxBytes = 32 * 1024
	m, err := Run(tr, cfg, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Feasible() {
		t.Fatal("32KB-budget run reported feasible")
	}
	if m.Mallocs+m.Failures == 0 || m.Mallocs == 0 {
		t.Fatalf("implausible counts %+v", m)
	}
}

func TestObjectives(t *testing.T) {
	m := &Metrics{Accesses: 10, FootprintBytes: 20, EnergyNJ: 30, Cycles: 40}
	for name, want := range map[string]float64{
		ObjAccesses: 10, ObjFootprint: 20, ObjEnergy: 30, ObjCycles: 40,
	} {
		got, err := m.Objective(name)
		if err != nil || got != want {
			t.Errorf("objective %s: %v %v", name, got, err)
		}
	}
	if _, err := m.Objective("nope"); err == nil {
		t.Error("unknown objective accepted")
	}
}

func TestRunWithCache(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	cfg := alloc.LeaConfig(memhier.LayerDRAM)
	plain, err := Run(tr, cfg, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Run(tr, cfg, h, Options{
		Caches: map[string]CacheSpec{
			memhier.LayerDRAM: {SizeWords: 4096, LineWords: 8, Ways: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Line fills amplify *word* traffic (8-word fetches for single-word
	// misses) but burst timing makes the sequential application accesses
	// much faster: execution time must drop.
	if cached.Cycles >= plain.Cycles {
		t.Fatalf("cache did not reduce execution time: %d vs %d cycles", cached.Cycles, plain.Cycles)
	}
	if _, err := Run(tr, cfg, h, Options{
		Caches: map[string]CacheSpec{"nowhere": {SizeWords: 64, LineWords: 4, Ways: 1}},
	}); err == nil {
		t.Fatal("cache on unknown layer accepted")
	}
	if _, err := Run(tr, cfg, h, Options{
		Caches: map[string]CacheSpec{memhier.LayerDRAM: {SizeWords: 0, LineWords: 4, Ways: 1}},
	}); err == nil {
		t.Fatal("invalid cache spec accepted")
	}
}

func TestRunEmitsParsableLog(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	var buf bytes.Buffer
	m, err := Run(tr, alloc.KingsleyConfig(memhier.LayerDRAM), h, Options{LogWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no log emitted")
	}
	sum, err := ParseLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalWords() != m.Accesses {
		t.Fatalf("log words %d != metrics accesses %d", sum.TotalWords(), m.Accesses)
	}
	dram, _ := h.ByName(memhier.LayerDRAM)
	if sum.Reads[dram] != m.PerLayer[dram].Reads || sum.Writes[dram] != m.PerLayer[dram].Writes {
		t.Fatal("per-layer log summary mismatch")
	}
}

func TestParseLogErrors(t *testing.T) {
	if _, err := ParseLog(bytes.NewReader([]byte{0x00})); err == nil {
		t.Fatal("truncated record accepted")
	}
	if _, err := ParseLog(bytes.NewReader(nil)); err == nil {
		t.Fatal("headerless empty input accepted")
	}
	var empty bytes.Buffer
	if err := WriteSyntheticLog(&empty, 0, 1); err != nil {
		t.Fatal(err)
	}
	s, err := ParseLog(&empty)
	if err != nil || s.Records != 0 {
		t.Fatalf("empty log: %v %v", s, err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	cfg := alloc.KingsleyConfig("not-a-layer")
	if _, err := Run(tr, cfg, h, Options{}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestRunFootprintSeries(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	m, err := Run(tr, alloc.LeaConfig(memhier.LayerDRAM), h, Options{SampleEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Series) < tr.Len()/500 {
		t.Fatalf("series has %d samples for %d events", len(m.Series), tr.Len())
	}
	var peakSeen int64
	prevEvent := -1
	for _, s := range m.Series {
		if s.Event <= prevEvent {
			t.Fatalf("series not increasing in event index: %d after %d", s.Event, prevEvent)
		}
		prevEvent = s.Event
		if s.ReservedBytes < s.RequestedBytes {
			t.Fatalf("event %d: footprint %d below demand %d", s.Event, s.ReservedBytes, s.RequestedBytes)
		}
		if s.ReservedBytes > peakSeen {
			peakSeen = s.ReservedBytes
		}
	}
	if peakSeen > m.FootprintBytes {
		t.Fatalf("series peak %d exceeds metric peak %d", peakSeen, m.FootprintBytes)
	}
	// The final sample is at trace end.
	if last := m.Series[len(m.Series)-1]; last.Event != tr.Len() {
		t.Fatalf("final sample at %d, want %d", last.Event, tr.Len())
	}
}

func TestRunWithoutSampling(t *testing.T) {
	tr := smallEasyport(t)
	m, err := Run(tr, alloc.KingsleyConfig(memhier.LayerDRAM), memhier.EmbeddedSoC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Series != nil {
		t.Fatal("series collected without SampleEvery")
	}
}
