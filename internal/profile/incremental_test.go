package profile

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// easyportCompiled builds a scaled-down easyport trace: bursty 74/1500-byte
// packet traffic with enough churn to exercise fixed pools, fallback ops
// and coalescing in both the full and partial replay paths.
func easyportCompiled(t *testing.T, packets int) *trace.Compiled {
	t.Helper()
	p := workload.DefaultEasyportParams()
	p.Packets = packets
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// incrementalConfigs enumerates fixed-pool signatures crossed with
// general-pool policies: no fixed pools, a dedicated pool sharing the
// general layer (DRAM — the composed-peak case), a scratchpad pool
// (disjoint layers), and a two-pool mix, each against several general
// pool shapes including the buddy allocator.
func incrementalConfigs() []alloc.Config {
	dram74 := alloc.FixedConfig{
		SlotBytes: 74, MatchLo: 74, MatchHi: 74, Layer: memhier.LayerDRAM,
		Order: alloc.LIFO, Links: alloc.SingleLink,
		Growth: alloc.GrowFixedChunk, ChunkSlots: 512,
	}
	sp74 := dram74
	sp74.Layer = memhier.LayerScratchpad
	sp74.MaxBytes = 48 * 1024
	mtu := alloc.FixedConfig{
		SlotBytes: 1500, MatchLo: 1300, MatchHi: 1500, Layer: memhier.LayerDRAM,
		Order: alloc.LIFO, Links: alloc.SingleLink,
		Growth: alloc.GrowFixedChunk, ChunkSlots: 128,
	}
	pools := [][]alloc.FixedConfig{
		nil,
		{dram74},
		{sp74},
		{sp74, mtu},
	}
	generals := []alloc.GeneralConfig{
		{Layer: memhier.LayerDRAM, Classes: "single", Fit: alloc.FirstFit,
			Order: alloc.LIFO, Links: alloc.SingleLink, Split: alloc.SplitAlways,
			Coalesce: alloc.CoalesceImmediate, Headers: alloc.HeaderBoundaryTag,
			Growth: alloc.GrowFixedChunk, ChunkBytes: 8 * 1024},
		{Layer: memhier.LayerDRAM, Classes: "single", Fit: alloc.BestFit,
			Order: alloc.AddrOrder, Links: alloc.DoubleLink, Split: alloc.SplitAlways,
			Coalesce: alloc.CoalesceNever, Headers: alloc.HeaderMinimal,
			Growth: alloc.GrowDouble, ChunkBytes: 8 * 1024},
		{Layer: memhier.LayerDRAM, Classes: "pow2:16:65536", RoundToClass: true,
			Fit: alloc.FirstFit, Order: alloc.LIFO, Links: alloc.SingleLink,
			Split: alloc.SplitAlways, Coalesce: alloc.CoalesceImmediate,
			Headers: alloc.HeaderBoundaryTag, Growth: alloc.GrowFixedChunk,
			ChunkBytes: 64 * 1024},
		{Layer: memhier.LayerDRAM, Classes: "buddy:64:65536", Fit: alloc.FirstFit,
			Order: alloc.LIFO, Links: alloc.SingleLink, Split: alloc.SplitAlways,
			Coalesce: alloc.CoalesceImmediate, Headers: alloc.HeaderBoundaryTag,
			Growth: alloc.GrowFixedChunk, ChunkBytes: 8 * 1024},
	}
	var cfgs []alloc.Config
	for pi, fixed := range pools {
		for gi, gen := range generals {
			cfgs = append(cfgs, alloc.Config{
				Label:   fmt.Sprintf("pools%d/gen%d", pi, gi),
				Fixed:   fixed,
				General: gen,
			})
		}
	}
	return cfgs
}

// runPartial profiles cfg the way the session's partial path does:
// PoolReplay of part's recorded ops, then Compose. ok is false when
// either declines.
func runPartial(rep *Replayer, ct *trace.Compiled, part *Partition, cfg alloc.Config, h *memhier.Hierarchy) (*Metrics, bool) {
	run, ok := rep.PoolReplay(part, cfg, h)
	if !ok {
		return nil, false
	}
	return rep.Compose(part, run, cfg, h)
}

// TestRunPartialMatchesFullReplay is the profile-level exactness check:
// for every configuration where the partial path accepts the replay, its
// metrics must be bit-identical to a full fast-path Run — including the
// float energy total.
func TestRunPartialMatchesFullReplay(t *testing.T) {
	ct := easyportCompiled(t, 400)
	h := memhier.EmbeddedSoC()
	rep := NewReplayer()

	partials, sharedLayerOK, scratchpadOK := 0, false, false
	parts := map[string]*Partition{}
	for _, cfg := range incrementalConfigs() {
		full, err := rep.Run(ct, cfg, h, Options{})
		if err != nil {
			t.Fatalf("%s: full replay: %v", cfg.Label, err)
		}
		sig := cfg.ID() // one partition per full config is fine for the test
		part := parts[sig]
		if part == nil {
			part, err = rep.Partition(ct, cfg, h)
			if err != nil {
				t.Fatalf("%s: partition: %v", cfg.Label, err)
			}
			parts[sig] = part
			if part.Ops() <= 0 || part.SkippedEvents() <= 0 {
				t.Fatalf("%s: degenerate partition: %d ops over %d events",
					cfg.Label, part.Ops(), part.Events())
			}
		}
		pm, ok := runPartial(rep, ct, part, cfg, h)
		if !ok {
			// The partial path may bail (capacity interaction, pool
			// failures); the full replay must then show why.
			continue
		}
		partials++
		if len(cfg.Fixed) > 0 && cfg.Fixed[0].Layer == memhier.LayerDRAM {
			sharedLayerOK = true
		}
		for _, f := range cfg.Fixed {
			if f.Layer == memhier.LayerScratchpad {
				scratchpadOK = true
			}
		}
		if math.Float64bits(pm.EnergyNJ) != math.Float64bits(full.EnergyNJ) {
			t.Errorf("%s: energy %v != %v (bit mismatch)", cfg.Label, pm.EnergyNJ, full.EnergyNJ)
		}
		if !reflect.DeepEqual(pm, full) {
			t.Errorf("%s: partial metrics diverge:\n  partial %+v\n  full    %+v", cfg.Label, pm, full)
		}
	}
	if partials == 0 {
		t.Fatal("no configuration took the partial path")
	}
	if !sharedLayerOK {
		t.Error("no accepted partial replay with a fixed pool sharing the general layer")
	}
	if !scratchpadOK {
		t.Error("no accepted partial replay with a scratchpad fixed pool")
	}
	t.Logf("%d partial replays accepted across %d configurations", partials, len(incrementalConfigs()))
}

// TestPartialSharesPartitionAcrossNeighbours checks the intended usage:
// one Partition built for a fixed-pool signature serves every general-pool
// variation (the Hamming-1 neighbours along general axes) exactly.
func TestPartialSharesPartitionAcrossNeighbours(t *testing.T) {
	ct := easyportCompiled(t, 300)
	h := memhier.EmbeddedSoC()
	rep := NewReplayer()

	cfgs := incrementalConfigs()[4:8] // the dram74 signature, four general pools
	part, err := rep.Partition(ct, cfgs[0], h)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, cfg := range cfgs {
		full, err := rep.Run(ct, cfg, h, Options{})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
		pm, ok := runPartial(rep, ct, part, cfg, h)
		if !ok {
			continue
		}
		accepted++
		if !reflect.DeepEqual(pm, full) {
			t.Errorf("%s: shared-partition partial diverges from full replay", cfg.Label)
		}
	}
	if accepted == 0 {
		t.Fatal("shared partition accepted no neighbour")
	}
}

// oomFixedTrace mixes dedicated-pool traffic (74-byte packet records)
// with general-pool allocations whose big outlier overflows a
// budget-capped general pool — the failure-replay fixture.
func oomFixedTrace(t *testing.T) *trace.Compiled {
	t.Helper()
	b := trace.NewBuilder("oomfixed")
	var pkts []uint64
	for i := 0; i < 8; i++ {
		p := b.Alloc(74)
		b.Access(p, 4, 2)
		pkts = append(pkts, p)
	}
	small := b.Alloc(512)
	b.Access(small, 8, 4)
	big := b.Alloc(8 * 1024) // exceeds the capped general pool below
	b.Access(big, 16, 16)    // accesses to the failed allocation: skipped
	b.Tick(50)
	b.Free(big) // free of the failed allocation: skipped
	mid := b.Alloc(1024)
	b.Access(mid, 4, 4)
	b.Free(small)
	for _, p := range pkts {
		b.Free(p)
	}
	b.FreeAll()
	ct, err := trace.Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// cappedGeneral caps the general pool so oomFixedTrace's 8 KB allocation
// fails with alloc.ErrOutOfMemory.
func cappedGeneral() alloc.GeneralConfig {
	gen := alloc.SimpleFirstFitConfig(memhier.LayerDRAM).General
	gen.ChunkBytes = 2 * 1024
	gen.MaxBytes = 4 * 1024
	return gen
}

// TestRunPartialFailureReplay pins the failure-replay extension: with a
// scratchpad fixed pool (no fixed pool on the general layer), a
// capacity-failing run must be served by the partial path bit-identically
// to a full replay — failures, skipped frees and skipped accesses
// included.
func TestRunPartialFailureReplay(t *testing.T) {
	ct := oomFixedTrace(t)
	h := memhier.EmbeddedSoC()
	rep := NewReplayer()
	cfg := alloc.Config{
		Label: "oom/sp74",
		Fixed: []alloc.FixedConfig{{
			SlotBytes: 74, MatchLo: 74, MatchHi: 74, Layer: memhier.LayerScratchpad,
			Order: alloc.LIFO, Links: alloc.SingleLink,
			Growth: alloc.GrowFixedChunk, ChunkSlots: 16, MaxBytes: 4 * 1024,
		}},
		General: cappedGeneral(),
	}

	full, err := rep.Run(ct, cfg, h, Options{})
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	if full.Failures == 0 {
		t.Fatal("fixture did not trigger an allocation failure")
	}
	part, err := rep.Partition(ct, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	if part.sharesGen {
		t.Fatal("scratchpad fixed pool reported as sharing the general layer")
	}
	run, ok := rep.PoolReplay(part, cfg, h)
	if !ok {
		t.Fatal("PoolReplay declined a budget-capped general pool")
	}
	if run.Failures() != full.Failures {
		t.Fatalf("standalone replay recorded %d failures, full replay %d",
			run.Failures(), full.Failures)
	}
	pm, ok := runPartial(rep, ct, part, cfg, h)
	if !ok {
		t.Fatal("partial path declined a failure-replayable run")
	}
	if math.Float64bits(pm.EnergyNJ) != math.Float64bits(full.EnergyNJ) {
		t.Errorf("energy bits diverge: %v vs %v", pm.EnergyNJ, full.EnergyNJ)
	}
	if !reflect.DeepEqual(pm, full) {
		t.Errorf("failure replay diverges from full replay:\n  partial %+v\n  full    %+v", pm, full)
	}
}

// TestRunPartialFailureDeclinesSharedLayer guards the exactness boundary:
// when a fixed pool reserves from the general layer, a failing run's
// failure points depend on fixed-side occupancy the standalone pool
// cannot see, so the partial path must decline.
func TestRunPartialFailureDeclinesSharedLayer(t *testing.T) {
	ct := oomFixedTrace(t)
	h := memhier.EmbeddedSoC()
	rep := NewReplayer()
	cfg := alloc.Config{
		Label: "oom/d74",
		Fixed: []alloc.FixedConfig{{
			SlotBytes: 74, MatchLo: 74, MatchHi: 74, Layer: memhier.LayerDRAM,
			Order: alloc.LIFO, Links: alloc.SingleLink,
			Growth: alloc.GrowFixedChunk, ChunkSlots: 16,
		}},
		General: cappedGeneral(),
	}
	part, err := rep.Partition(ct, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	if !part.sharesGen {
		t.Fatal("DRAM fixed pool not flagged as sharing the general layer")
	}
	run, ok := rep.PoolReplay(part, cfg, h)
	if !ok || run.Failures() == 0 {
		t.Fatalf("standalone replay should record failures (ok=%v)", ok)
	}
	if _, ok := rep.Compose(part, run, cfg, h); ok {
		t.Fatal("Compose accepted a failing run with a fixed pool on the general layer")
	}
}

// TestPoolRunComposesAcrossPartitions is the memo-sharing property: two
// fixed-pool signatures that route requests identically record
// content-identical fallback sequences, so a PoolRun replayed under one
// partition composes exactly with the other — the mechanism that turns a
// decomposable multi-axis delta (fixed axis × general axis) into a
// no-simulation composition.
func TestPoolRunComposesAcrossPartitions(t *testing.T) {
	ct := easyportCompiled(t, 300)
	h := memhier.EmbeddedSoC()
	rep := NewReplayer()

	pool := func(order alloc.ListOrder) []alloc.FixedConfig {
		return []alloc.FixedConfig{{
			SlotBytes: 74, MatchLo: 74, MatchHi: 74, Layer: memhier.LayerDRAM,
			Order: order, Links: alloc.SingleLink,
			Growth: alloc.GrowFixedChunk, ChunkSlots: 512,
		}}
	}
	gen := incrementalConfigs()[0].General
	cfgA := alloc.Config{Label: "lifo74", Fixed: pool(alloc.LIFO), General: gen}
	cfgB := alloc.Config{Label: "fifo74", Fixed: pool(alloc.FIFO), General: gen}

	partA, err := rep.Partition(ct, cfgA, h)
	if err != nil {
		t.Fatal(err)
	}
	partB, err := rep.Partition(ct, cfgB, h)
	if err != nil {
		t.Fatal(err)
	}
	// Routing is a pure function of the match ranges, so the recorded
	// sequences must agree — the premise of cross-partition memo sharing.
	if partA.OpsHash() != partB.OpsHash() {
		t.Fatalf("routing-identical signatures hash differently: %016x vs %016x",
			partA.OpsHash(), partB.OpsHash())
	}
	runA, ok := rep.PoolReplay(partA, cfgA, h)
	if !ok {
		t.Fatal("PoolReplay declined")
	}
	if !runA.MatchesOps(partB) {
		t.Fatal("run recorded under signature A does not match signature B's ops")
	}
	full, err := rep.Run(ct, cfgB, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rep.Compose(partB, runA, cfgB, h)
	if !ok {
		t.Fatal("cross-partition Compose declined")
	}
	if math.Float64bits(got.EnergyNJ) != math.Float64bits(full.EnergyNJ) {
		t.Errorf("energy bits diverge: %v vs %v", got.EnergyNJ, full.EnergyNJ)
	}
	if !reflect.DeepEqual(got, full) {
		t.Errorf("cross-partition composition diverges:\n  composed %+v\n  full     %+v", got, full)
	}
}

// TestReplayerResetReuse exercises the reset path: a warmed
// Replayer reused across traces of different ID-space sizes must behave
// like a fresh one.
func TestReplayerResetReuse(t *testing.T) {
	big := easyportCompiled(t, 300)
	small := easyportCompiled(t, 50)
	cfg := incrementalConfigs()[0]
	h := memhier.EmbeddedSoC()

	warm := NewReplayer()
	if _, err := warm.Run(big, cfg, h, Options{}); err != nil {
		t.Fatal(err)
	}
	warm.reset(small.NumIDs)
	got, err := warm.Run(small, cfg, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewReplayer().Run(small, cfg, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused Replayer diverges:\n  got  %+v\n  want %+v", got, want)
	}
}

// TestComposeSharedLayerPeakAfterReclaim pins the per-gap peak window: a
// reclaiming DRAM fixed pool grows to 64 packets and hands every chunk
// back before any fallback op, so the fixed side's peak lies in gap 0
// alone. The general pool then grows on the same layer, and the composed
// peak must pair each gap's own fixed-side maximum with the general
// level after it, not the fixed side's all-time peak.
func TestComposeSharedLayerPeakAfterReclaim(t *testing.T) {
	b := trace.NewBuilder("reclaim-then-general")
	var pkts []uint64
	for i := 0; i < 64; i++ {
		pkts = append(pkts, b.Alloc(74))
	}
	for _, p := range pkts {
		b.Free(p)
	}
	for i := 0; i < 8; i++ {
		b.Alloc(3000)
	}
	b.FreeAll()
	ct, err := trace.Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	rep := NewReplayer()
	cfg := alloc.Config{
		Label: "reclaim/d74",
		Fixed: []alloc.FixedConfig{{
			SlotBytes: 74, MatchLo: 74, MatchHi: 74, Layer: memhier.LayerDRAM,
			Order: alloc.LIFO, Links: alloc.SingleLink,
			Growth: alloc.GrowFixedChunk, ChunkSlots: 8, Reclaim: true,
		}},
		General: incrementalConfigs()[0].General,
	}
	full, err := rep.Run(ct, cfg, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := rep.Partition(ct, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	pm, ok := runPartial(rep, ct, part, cfg, h)
	if !ok {
		t.Fatal("partial path declined an unbounded shared layer")
	}
	if !reflect.DeepEqual(pm, full) {
		t.Errorf("composed metrics diverge:\n  partial %+v\n  full    %+v", pm, full)
	}
	if full.FootprintBytes != 33464 {
		t.Errorf("footprint %d B, want 33464", full.FootprintBytes)
	}
}

// TestComposeSharedLayerPeakAtLastGap is the mirror of
// TestComposeSharedLayerPeakAfterReclaim: the general pool grows on DRAM
// first, and only then does a DRAM fixed pool grow to 64 packets, inside
// the gap after the last general allocation. The fixed side's gap maxima
// change for the last time there, so the composed peak is that last
// change point plus the general pool's final level; the merge of the two
// change-point lists must reach it.
func TestComposeSharedLayerPeakAtLastGap(t *testing.T) {
	b := trace.NewBuilder("general-then-fixed")
	var gen, pkts []uint64
	for i := 0; i < 8; i++ {
		gen = append(gen, b.Alloc(3000))
	}
	for i := 0; i < 64; i++ {
		pkts = append(pkts, b.Alloc(74))
	}
	for _, p := range pkts {
		b.Free(p)
	}
	for _, g := range gen {
		b.Free(g)
	}
	ct, err := trace.Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	rep := NewReplayer()
	cfg := alloc.Config{
		Label: "general-then-fixed/d74",
		Fixed: []alloc.FixedConfig{{
			SlotBytes: 74, MatchLo: 74, MatchHi: 74, Layer: memhier.LayerDRAM,
			Order: alloc.LIFO, Links: alloc.SingleLink,
			Growth: alloc.GrowFixedChunk, ChunkSlots: 8,
		}},
		General: incrementalConfigs()[0].General,
	}
	full, err := rep.Run(ct, cfg, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := rep.Partition(ct, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(part.fSteps); n < 2 || part.fSteps[n-1].at != 8 {
		t.Fatalf("fixed-side change points %v, want the last at gap 8", part.fSteps)
	}
	pm, ok := runPartial(rep, ct, part, cfg, h)
	if !ok {
		t.Fatal("partial path declined an unbounded shared layer")
	}
	if !reflect.DeepEqual(pm, full) {
		t.Errorf("composed metrics diverge:\n  partial %+v\n  full    %+v", pm, full)
	}
	if full.FootprintBytes != 37944 {
		t.Errorf("footprint %d B, want 37944", full.FootprintBytes)
	}
}

// TestMatchesOpsComparesPositions covers MatchesOps beyond the shared
// positions the shipped spaces record: a sequence matches only the same
// positions of the same trace. Content-identical ops elsewhere in the
// trace, or in another trace, do not match, so a memo hit on them
// rebuilds privately. It also holds each partition's content hash to the
// FNV-1a of its op words.
func TestMatchesOpsComparesPositions(t *testing.T) {
	build := func() *trace.Compiled {
		b := trace.NewBuilder("content")
		for _, pair := range [][2]int64{{64, 64}, {64, 64}, {64, 96}} {
			x, y := b.Alloc(pair[0]), b.Alloc(pair[1])
			b.Free(x)
			b.Free(y)
		}
		ct, err := trace.Compile(b.Build())
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	ct, other := build(), build()
	seq := func(first uint32) []uint32 { return []uint32{first, first + 1, first + 2, first + 3} }
	run := &PoolRun{ct: ct, ops: seq(0)}
	for _, c := range []struct {
		name  string
		part  *Partition
		match bool
	}{
		{"the same positions", &Partition{ct: ct, ops: seq(0)}, true},
		{"the same content elsewhere", &Partition{ct: ct, ops: seq(4)}, false},
		{"another size", &Partition{ct: ct, ops: seq(8)}, false},
		{"the same positions of another trace", &Partition{ct: other, ops: seq(0)}, false},
		{"a prefix", &Partition{ct: ct, ops: seq(0)[:2]}, false},
	} {
		if got := run.MatchesOps(c.part); got != c.match {
			t.Errorf("%s: MatchesOps %v, want %v", c.name, got, c.match)
		}
	}

	ep := easyportCompiled(t, 300)
	h := memhier.EmbeddedSoC()
	rep := NewReplayer()
	for _, cfg := range incrementalConfigs() {
		part, err := rep.Partition(ep, cfg, h)
		if err != nil {
			t.Fatal(err)
		}
		hash := uint64(fnvOffset64)
		for _, w := range opWords(ep, part.ops) {
			hash = hashOp(hash, w)
		}
		if hash != part.OpsHash() {
			t.Errorf("%s: content hash %#x, FNV-1a of the op words %#x", cfg.Label, part.OpsHash(), hash)
		}
	}
}

// opWords returns the content words of the op sequence at flat-view
// positions pos of ct, the words a partition's content hash folds: an
// allocation's size, or ^k for a free of the k-th allocation of the
// sequence.
func opWords(ct *trace.Compiled, pos []uint32) []int64 {
	var v flatView
	v.of(ct)
	rank := make([]int64, ct.NumIDs)
	words := make([]int64, len(pos))
	k := int64(0)
	for i, p := range pos {
		op := v.ops[p]
		if trace.ArgKind(op.arg) == trace.KindAlloc {
			rank[op.id] = k
			k++
			words[i] = int64(ct.Arg(op.arg))
		} else {
			words[i] = ^rank[op.id]
		}
	}
	return words
}
