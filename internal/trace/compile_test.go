package trace

import (
	"testing"
)

// buildSample returns a trace exercising every op kind with sparse,
// out-of-order IDs (the builder hands out 1,2,3... so we craft events by
// hand to get a sparse ID space).
func buildSample() *Trace {
	return &Trace{Name: "sample", Events: []Event{
		{Kind: KindAlloc, ID: 100, Size: 64},
		{Kind: KindAlloc, ID: 7, Size: 16},
		{Kind: KindAccess, ID: 100, Reads: 3, Writes: 1},
		{Kind: KindTick, Cycles: 10},
		{Kind: KindFree, ID: 100},
		{Kind: KindAlloc, ID: 900, Size: 32},
		{Kind: KindAccess, ID: 7, Writes: 2},
		{Kind: KindFree, ID: 7},
		{Kind: KindFree, ID: 900},
	}}
}

func TestCompileRenumbersDense(t *testing.T) {
	c, err := Compile(buildSample())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumIDs != 3 {
		t.Fatalf("NumIDs = %d, want 3", c.NumIDs)
	}
	if c.Len() != 9 {
		t.Fatalf("Len = %d, want 9", c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		op := c.At(i)
		if op.Kind == KindTick {
			continue
		}
		if int(op.ID) >= c.NumIDs {
			t.Fatalf("op %d: id %d outside dense range [0,%d)", i, op.ID, c.NumIDs)
		}
	}
	// IDs are assigned in first-alloc order: 100 -> 0, 7 -> 1, 900 -> 2.
	if c.At(0).ID != 0 || c.At(1).ID != 1 || c.At(5).ID != 2 {
		t.Fatalf("dense assignment: %d %d %d", c.At(0).ID, c.At(1).ID, c.At(5).ID)
	}
	if c.At(2).ID != 0 || c.At(6).ID != 1 {
		t.Fatalf("access renumbering: %d %d", c.At(2).ID, c.At(6).ID)
	}
}

// TestCompileWideIDsAndArgs covers the compact columns' escapes: dense
// IDs past 65,535 (the high ID column) and arguments too wide for the
// argument word (the wide column) must read back exactly.
func TestCompileWideIDsAndArgs(t *testing.T) {
	const n = 70000
	b := NewBuilder("wide")
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = b.Alloc(int64(8 + i%3))
	}
	b.Access(ids[n-1], 1<<13, 1<<16)
	b.Tick(1 << 30)
	big := b.Alloc(1 << 40)
	b.Free(big)
	b.FreeAll()
	c, err := Compile(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Kind: KindAlloc, ID: n - 1, Size: 8 + (n-1)%3},
		{Kind: KindAccess, ID: n - 1, Reads: 1 << 13, Writes: 1 << 16},
		{Kind: KindTick, Cycles: 1 << 30},
		{Kind: KindAlloc, ID: n, Size: 1 << 40},
		{Kind: KindFree, ID: n, Size: 1 << 40},
	}
	for k, w := range want {
		if op := c.At(n - 1 + k); op != w {
			t.Errorf("event %d: got %+v, want %+v", n-1+k, op, w)
		}
	}
	if op := c.At(c.Len() - 1); op.Kind != KindFree || op.ID != n-1 {
		t.Errorf("last free: %+v", op)
	}
}

func TestCompileResolvesFreeSizes(t *testing.T) {
	c, err := Compile(buildSample())
	if err != nil {
		t.Fatal(err)
	}
	frees := map[uint32]int64{}
	for i := 0; i < c.Len(); i++ {
		op := c.At(i)
		if op.Kind == KindFree {
			frees[op.ID] = op.Size
		}
	}
	want := map[uint32]int64{0: 64, 1: 16, 2: 32}
	for id, size := range want {
		if frees[id] != size {
			t.Errorf("free of dense id %d carries size %d, want %d", id, frees[id], size)
		}
	}
}

func TestCompileCounts(t *testing.T) {
	c, err := Compile(buildSample())
	if err != nil {
		t.Fatal(err)
	}
	if c.Allocs != 3 || c.Frees != 3 || c.Accesses != 2 || c.Ticks != 1 {
		t.Fatalf("counts %d/%d/%d/%d", c.Allocs, c.Frees, c.Accesses, c.Ticks)
	}
	// Peak live: 100 and 7 overlap; 900 lives alone. Peak demand 64+16.
	if c.PeakLive != 2 {
		t.Fatalf("PeakLive = %d, want 2", c.PeakLive)
	}
	if c.PeakRequestedBytes != 80 {
		t.Fatalf("PeakRequestedBytes = %d, want 80", c.PeakRequestedBytes)
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	cases := map[string]*Trace{
		"double alloc": {Events: []Event{
			{Kind: KindAlloc, ID: 1, Size: 8},
			{Kind: KindAlloc, ID: 1, Size: 8},
		}},
		"reuse after free": {Events: []Event{
			{Kind: KindAlloc, ID: 1, Size: 8},
			{Kind: KindFree, ID: 1},
			{Kind: KindAlloc, ID: 1, Size: 8},
		}},
		"free dead": {Events: []Event{{Kind: KindFree, ID: 1}}},
		"access dead": {Events: []Event{
			{Kind: KindAlloc, ID: 1, Size: 8},
			{Kind: KindFree, ID: 1},
			{Kind: KindAccess, ID: 1, Reads: 1},
		}},
		"empty access": {Events: []Event{
			{Kind: KindAlloc, ID: 1, Size: 8},
			{Kind: KindAccess, ID: 1},
		}},
		"zero tick": {Events: []Event{{Kind: KindTick}}},
		"bad size":  {Events: []Event{{Kind: KindAlloc, ID: 1, Size: 0}}},
		"bad kind":  {Events: []Event{{Kind: EventKind(99)}}},
	}
	for name, tr := range cases {
		if _, err := Compile(tr); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCompileAgreesWithValidate pins Compile's validation to the original
// Validate: a trace is compilable iff it is valid.
func TestCompileAgreesWithValidate(t *testing.T) {
	b := NewBuilder("agree")
	a := b.Alloc(100)
	bID := b.Alloc(200)
	b.Access(a, 4, 2)
	b.Tick(7)
	b.Free(a)
	b.Access(bID, 0, 1)
	b.FreeAll()
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(tr); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderFreeAllAscending(t *testing.T) {
	b := NewBuilder("freeall")
	for i := 0; i < 100; i++ {
		b.Alloc(8)
	}
	// Free a few in the middle so Live() is a strict subset.
	b.Free(50)
	b.Free(10)
	b.FreeAll()
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var prev uint64
	var started bool
	for _, e := range tr.Events[102:] { // after 100 allocs + 2 manual frees
		if e.Kind != KindFree {
			t.Fatalf("unexpected %v after FreeAll", e.Kind)
		}
		if started && e.ID <= prev {
			t.Fatalf("FreeAll out of order: %d after %d", e.ID, prev)
		}
		prev, started = e.ID, true
	}
	if b.NumLive() != 0 {
		t.Fatalf("%d still live", b.NumLive())
	}
}
