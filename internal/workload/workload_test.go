package workload

import (
	"slices"
	"testing"

	"dmexplore/internal/trace"
)

func TestEasyportValidTrace(t *testing.T) {
	p := DefaultEasyportParams()
	p.Packets = 2000
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	prof := trace.Analyze(tr)
	if prof.FinalLiveBytes != 0 {
		t.Fatalf("trace leaks %d bytes", prof.FinalLiveBytes)
	}
	if prof.Allocs < 2000 {
		t.Fatalf("allocs %d", prof.Allocs)
	}
}

func TestEasyportDeterministic(t *testing.T) {
	p := DefaultEasyportParams()
	p.Packets = 1000
	a, _ := p.Generate()
	b, _ := p.Generate()
	if len(a.Events) != len(b.Events) {
		t.Fatalf("lengths %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestEasyportSeedChangesTrace(t *testing.T) {
	p := DefaultEasyportParams()
	p.Packets = 1000
	a, _ := p.Generate()
	p.Seed = 2
	b, _ := p.Generate()
	if len(a.Events) == len(b.Events) {
		same := true
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestEasyportDominantSizes(t *testing.T) {
	p := DefaultEasyportParams()
	p.Packets = 5000
	tr, _ := p.Generate()
	prof := trace.Analyze(tr)
	top := prof.DominantSizes(2)
	if len(top) != 2 {
		t.Fatal("no dominant sizes")
	}
	if top[0].Value != EasyportControlBytes {
		t.Fatalf("dominant size %d, want 74", top[0].Value)
	}
	if top[1].Value != EasyportFrameBytes {
		t.Fatalf("second size %d, want 1500", top[1].Value)
	}
	// Control blocks are ~62% of packets: counts must reflect that.
	if top[0].Count < 2*top[1].Count {
		t.Fatalf("74B count %d not dominant over 1500B count %d", top[0].Count, top[1].Count)
	}
}

func TestEasyportBurstinessCreatesLivePressure(t *testing.T) {
	p := DefaultEasyportParams()
	p.Packets = 5000
	tr, _ := p.Generate()
	prof := trace.Analyze(tr)
	if prof.PeakLiveBlocks < int64(p.QueueTarget) {
		t.Fatalf("peak live blocks %d below queue target %d", prof.PeakLiveBlocks, p.QueueTarget)
	}
	if prof.TickCycles == 0 {
		t.Fatal("no CPU work generated")
	}
}

func TestEasyportValidation(t *testing.T) {
	bad := []func(*EasyportParams){
		func(p *EasyportParams) { p.Packets = 0 },
		func(p *EasyportParams) { p.BurstMean = 0 },
		func(p *EasyportParams) { p.QueueTarget = 0 },
		func(p *EasyportParams) { p.ControlFrac = 0.8; p.DataFrac = 0.5 },
		func(p *EasyportParams) { p.ControlFrac = -0.1 },
	}
	for i, mut := range bad {
		p := DefaultEasyportParams()
		mut(&p)
		if _, err := p.Generate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestVTCValidTrace(t *testing.T) {
	p := DefaultVTCParams()
	p.Tiles = 10
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	prof := trace.Analyze(tr)
	if prof.FinalLiveBytes != 0 {
		t.Fatalf("trace leaks %d bytes", prof.FinalLiveBytes)
	}
}

func TestVTCDeterministic(t *testing.T) {
	p := DefaultVTCParams()
	p.Tiles = 5
	a, _ := p.Generate()
	b, _ := p.Generate()
	if len(a.Events) != len(b.Events) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestVTCWideSizeSpectrum(t *testing.T) {
	p := DefaultVTCParams()
	p.Tiles = 10
	tr, _ := p.Generate()
	prof := trace.Analyze(tr)
	if got := len(prof.Sizes.Values()); got < 8 {
		t.Fatalf("only %d distinct sizes, want a wide spectrum", got)
	}
	// Both tiny nodes and full-tile buffers must appear.
	if prof.Sizes.Min() > 64 {
		t.Fatalf("min size %d, want zerotree nodes", prof.Sizes.Min())
	}
	if prof.Sizes.Max() < int64(p.TileDim*p.TileDim) {
		t.Fatalf("max size %d, want output textures", prof.Sizes.Max())
	}
}

func TestVTCCPUDominated(t *testing.T) {
	// VTC's trace must be CPU-heavy relative to its access traffic; this
	// is what compresses execution-time spreads in the paper (5.4% vs
	// 82.4% energy).
	p := DefaultVTCParams()
	p.Tiles = 10
	tr, _ := p.Generate()
	prof := trace.Analyze(tr)
	if prof.TickCycles < prof.AccessWords {
		t.Fatalf("tick cycles %d below access words %d: not CPU-dominated",
			prof.TickCycles, prof.AccessWords)
	}
}

// TestVTCPresizedExactly pins the VTC event count, which the parameters
// fix, and the generator's presizing to it: the trace's events take one
// allocation, never regrown.
func TestVTCPresizedExactly(t *testing.T) {
	small := DefaultVTCParams()
	small.Tiles, small.Levels, small.NodesPerTile = 1, 1, 0 // fewer tiles than the queue holds
	deep := DefaultVTCParams()
	deep.Seed, deep.Tiles, deep.Levels, deep.QueueDepth, deep.NodesPerTile = 3, 7, 8, 5, 13
	for _, c := range []struct {
		p    VTCParams
		want int
	}{
		{DefaultVTCParams(), 235108},
		{small, 27},
		{deep, 1142},
	} {
		tr, err := c.p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		// One allocation of want events, rounded up to its size class.
		presized := cap(slices.Grow([]trace.Event(nil), c.want))
		if n := len(tr.Events); n != c.want || cap(tr.Events) != presized {
			t.Errorf("%+v: %d events in capacity %d, want %d in %d", c.p, n, cap(tr.Events), c.want, presized)
		}
	}
}

func TestVTCValidation(t *testing.T) {
	bad := []func(*VTCParams){
		func(p *VTCParams) { p.Tiles = 0 },
		func(p *VTCParams) { p.Levels = 0 },
		func(p *VTCParams) { p.Levels = 9 },
		func(p *VTCParams) { p.TileDim = 4 },
		func(p *VTCParams) { p.QueueDepth = 0 },
	}
	for i, mut := range bad {
		p := DefaultVTCParams()
		mut(&p)
		if _, err := p.Generate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestSyntheticValidTrace(t *testing.T) {
	p := DefaultSyntheticParams()
	p.Ops = 3000
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	prof := trace.Analyze(tr)
	if prof.Allocs != 3000 {
		t.Fatalf("allocs %d", prof.Allocs)
	}
	if prof.FinalLiveBytes != 0 {
		t.Fatal("synthetic trace leaks")
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := []func(*SyntheticParams){
		func(p *SyntheticParams) { p.Ops = 0 },
		func(p *SyntheticParams) { p.Sizes = nil },
		func(p *SyntheticParams) { p.Weights = p.Weights[:1] },
		func(p *SyntheticParams) { p.Sizes[0] = 0 },
		func(p *SyntheticParams) { p.FreeProb = 1.0 },
		func(p *SyntheticParams) { p.MinLive = -1 },
	}
	for i, mut := range bad {
		p := DefaultSyntheticParams()
		mut(&p)
		if _, err := p.Generate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 3 {
		t.Fatalf("names %v", names)
	}
	for _, name := range names {
		g, err := New(name, 7, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := g.Generate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := New("nope", 1, 100); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := New("easyport", 1, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
}
