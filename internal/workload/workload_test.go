package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
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

// defaultTraces returns the default Easyport and VTC traces.
func defaultTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, g := range []Generator{DefaultEasyportParams(), DefaultVTCParams()} {
		tr, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// TestDefaultTraceEncodingsPinned pins the SHA-256 of the v2 binary and
// text encodings of both default traces, so a change to the in-memory
// Event layout cannot change a byte the codecs write.
func TestDefaultTraceEncodingsPinned(t *testing.T) {
	want := map[string][2]string{ // v2, text
		"easyport": {
			"5b5e13a3aac78030d1dd6614d02fe9c189f3dfea9ee6c713666079a31087f5c2",
			"4fbd380a010d6a8ba063347f21acb6f44f4ff6136b6776ce4401fb49fb180297",
		},
		"vtc": {
			"fc163d8ece14d9b24dc20520448c18fa297f6fa136caa3d16c7618851a21a3a9",
			"bc2ea73ffb8c34f6870744692ddf2a3a9463e33f62a79ceabcc12a6329dfc0eb",
		},
	}
	for _, tr := range defaultTraces(t) {
		name, _, _ := strings.Cut(tr.Name, "[")
		var v2, txt bytes.Buffer
		if err := trace.WriteBinaryV2(&v2, tr); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteText(&txt, tr); err != nil {
			t.Fatal(err)
		}
		got := [2]string{fmt.Sprintf("%x", sha256.Sum256(v2.Bytes())), fmt.Sprintf("%x", sha256.Sum256(txt.Bytes()))}
		if got != want[name] {
			t.Errorf("%s: encodings hash to v2 %s, text %s; want %s, %s", tr.Name, got[0], got[1], want[name][0], want[name][1])
		}
	}
}

// TestCompiledAtMatchesEvents checks that every compiled operation of
// both default traces reads back as its source event: same kind and
// arguments, the dense ID a bijection of the original, and a Free's size
// that of its allocation.
func TestCompiledAtMatchesEvents(t *testing.T) {
	for _, tr := range defaultTraces(t) {
		c, err := trace.Compile(tr)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != tr.Len() {
			t.Fatalf("%s: %d compiled ops for %d events", tr.Name, c.Len(), tr.Len())
		}
		dense := map[uint64]uint32{}
		size := map[uint64]int64{}
		for i, e := range tr.Events {
			op := c.At(i)
			want := trace.Op{Kind: e.Kind(), ID: dense[e.ID()]}
			switch e.Kind() {
			case trace.KindAlloc:
				want.ID = uint32(len(dense))
				want.Size = e.Size()
				dense[e.ID()], size[e.ID()] = want.ID, e.Size()
			case trace.KindFree:
				want.Size = size[e.ID()]
			case trace.KindAccess:
				want.Reads, want.Writes = uint64(e.Reads()), uint64(e.Writes())
			case trace.KindTick:
				want.Cycles = uint64(e.Cycles())
			}
			if op != want {
				t.Fatalf("%s: At(%d) = %+v, want %+v (event %v)", tr.Name, i, op, want, e)
			}
		}
	}
}
