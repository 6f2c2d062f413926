package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmexplore/internal/stats"
)

func sampleTrace() *Trace {
	b := NewBuilder("sample")
	id1 := b.Alloc(74)
	b.Access(id1, 10, 5)
	b.Tick(100)
	id2 := b.Alloc(1500)
	b.Access(id2, 200, 180)
	b.Free(id1)
	b.Free(id2)
	return b.Build()
}

func TestBuilderProducesValidTrace(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 7 {
		t.Fatalf("len %d", tr.Len())
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder("x")
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("alloc(0)", func() { b.Alloc(0) })
	mustPanic("free dead", func() { b.Free(42) })
	mustPanic("access dead", func() { b.Access(42, 1, 0) })
}

func TestBuilderNoopEvents(t *testing.T) {
	b := NewBuilder("x")
	id := b.Alloc(10)
	b.Access(id, 0, 0) // no-op
	b.Tick(0)          // no-op
	b.Free(id)
	if got := b.Build().Len(); got != 2 {
		t.Fatalf("len %d, want 2 (no-ops skipped)", got)
	}
}

func TestBuilderFreeAll(t *testing.T) {
	b := NewBuilder("x")
	b.Alloc(1)
	b.Alloc(2)
	b.Alloc(3)
	if b.NumLive() != 3 {
		t.Fatalf("live %d", b.NumLive())
	}
	b.FreeAll()
	if b.NumLive() != 0 {
		t.Fatal("live after FreeAll")
	}
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// FreeAll must be deterministic: ascending IDs.
	var frees []uint64
	for _, e := range tr.Events {
		if e.Kind() == KindFree {
			frees = append(frees, e.ID())
		}
	}
	for i := 1; i < len(frees); i++ {
		if frees[i] < frees[i-1] {
			t.Fatalf("frees not ascending: %v", frees)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
	}{
		{"free before alloc", []Event{FreeEvent(1)}},
		{"double free", []Event{
			AllocEvent(1, 8), FreeEvent(1), FreeEvent(1)}},
		{"double alloc", []Event{
			AllocEvent(1, 8), AllocEvent(1, 8)}},
		{"id reuse", []Event{
			AllocEvent(1, 8), FreeEvent(1),
			AllocEvent(1, 8)}},
		{"access dead", []Event{AccessEvent(1, 1, 0)}},
		{"zero size", []Event{AllocEvent(1, 0)}},
		{"empty access", []Event{
			AllocEvent(1, 8), AccessEvent(1, 0, 0)}},
		{"zero tick", []Event{TickEvent(0)}},
		{"unknown kind", []Event{{}}},
	}
	for _, c := range cases {
		tr := &Trace{Name: c.name, Events: c.events}
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestAnalyze(t *testing.T) {
	b := NewBuilder("x")
	id1 := b.Alloc(100) // live bytes 100
	id2 := b.Alloc(200) // 300 <- peak
	b.Access(id1, 5, 3)
	b.Tick(50)
	b.Free(id1) // 200
	id3 := b.Alloc(50)
	b.Free(id2)
	_ = id3 // left live
	p := Analyze(b.Build())
	if p.Allocs != 3 || p.Frees != 2 {
		t.Fatalf("allocs/frees %d/%d", p.Allocs, p.Frees)
	}
	if p.PeakLiveBytes != 300 {
		t.Fatalf("peak %d", p.PeakLiveBytes)
	}
	if p.PeakLiveBlocks != 2 {
		t.Fatalf("peak blocks %d", p.PeakLiveBlocks)
	}
	if p.FinalLiveBytes != 50 {
		t.Fatalf("final live %d", p.FinalLiveBytes)
	}
	if p.AccessWords != 8 || p.Accesses != 1 {
		t.Fatalf("accesses %d/%d", p.Accesses, p.AccessWords)
	}
	if p.TickCycles != 50 {
		t.Fatalf("ticks %d", p.TickCycles)
	}
	if p.Sizes.Total() != 3 || p.Sizes.Count(100) != 1 {
		t.Fatal("size histogram wrong")
	}
	if p.Lifetimes.Total() != 2 {
		t.Fatal("lifetime histogram wrong")
	}
}

func TestDominantSizes(t *testing.T) {
	b := NewBuilder("x")
	for i := 0; i < 10; i++ {
		b.Free(b.Alloc(74))
	}
	for i := 0; i < 5; i++ {
		b.Free(b.Alloc(1500))
	}
	b.Free(b.Alloc(32))
	p := Analyze(b.Build())
	top := p.DominantSizes(2)
	if len(top) != 2 || top[0].Value != 74 || top[1].Value != 1500 {
		t.Fatalf("dominant sizes %v", top)
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var sb strings.Builder
	if err := WriteText(&sb, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Fatalf("name %q", got.Name)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("events %d vs %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestTextSkipsBlanksAndComments(t *testing.T) {
	in := "# dmtrace demo\n\n# a comment\na 1 74\n\nf 1\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "demo" || tr.Len() != 2 {
		t.Fatalf("%q %d", tr.Name, tr.Len())
	}
}

func TestTextErrors(t *testing.T) {
	for _, in := range []string{
		"a 1\n",       // missing size
		"f\n",         // missing id
		"x 1 2\n",     // missing writes
		"q 1\n",       // unknown record
		"t\n",         // missing cycles
		"a one two\n", // non-numeric
	} {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var sb strings.Builder
	if err := WriteBinaryV2(&sb, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip mismatch: %q %d", got.Name, len(got.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("DMTR\x09")); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated event stream (the sequential reader stops at the end
	// marker, so cut inside the block).
	tr := sampleTrace()
	var sb strings.Builder
	WriteBinaryV2(&sb, tr)
	full := sb.String()
	if _, err := ReadBinary(strings.NewReader(full[:len(full)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestBinaryDenserThanText(t *testing.T) {
	b := NewBuilder("density")
	for i := 0; i < 1000; i++ {
		id := b.Alloc(int64(i%512 + 1))
		b.Access(id, uint64(i%64+1), 2)
		b.Free(id)
	}
	tr := b.Build()
	var text, bin strings.Builder
	WriteText(&text, tr)
	WriteBinaryV2(&bin, tr)
	if bin.Len() >= text.Len()/2 {
		t.Fatalf("binary %d not much denser than text %d", bin.Len(), text.Len())
	}
}

// TestReadAuto checks that ReadFile sniffs the format of a file: v2
// binary and text files of the same trace read alike, and a file that
// is neither is rejected.
func TestReadAuto(t *testing.T) {
	tr := sampleTrace()
	var bin, txt strings.Builder
	if err := WriteBinaryV2(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for format, in := range map[string]string{"v2": bin.String(), "text": txt.String()} {
		path := filepath.Join(dir, format+".dmt")
		if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if got.Name != tr.Name || !reflect.DeepEqual(got.Events, tr.Events) {
			t.Fatalf("%s: auto read: %d events, name %q", format, got.Len(), got.Name)
		}
	}
	garbage := filepath.Join(dir, "garbage.dmt")
	if err := os.WriteFile(garbage, []byte("q 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(garbage, 2, nil); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCodecPropertyRandomRoundTrip(t *testing.T) {
	// Random valid traces must survive both codecs byte-exactly.
	rng := stats.NewRNG(31)
	for iter := 0; iter < 25; iter++ {
		b := NewBuilder("prop")
		var live []uint64
		ops := rng.Intn(200) + 1
		for i := 0; i < ops; i++ {
			switch {
			case len(live) > 0 && rng.Bool(0.3):
				k := rng.Intn(len(live))
				b.Free(live[k])
				live = append(live[:k], live[k+1:]...)
			case len(live) > 0 && rng.Bool(0.3):
				b.Access(live[rng.Intn(len(live))], uint64(rng.Intn(100)), uint64(rng.Intn(100)+1))
			case rng.Bool(0.2):
				b.Tick(uint64(rng.Intn(10000) + 1))
			default:
				live = append(live, b.Alloc(int64(rng.Intn(100000))+1))
			}
		}
		tr := b.Build()
		var bin strings.Builder
		if err := WriteBinaryV2(&bin, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(strings.NewReader(bin.String()))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != len(tr.Events) {
			t.Fatalf("iter %d: %d vs %d events", iter, len(got.Events), len(tr.Events))
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				t.Fatalf("iter %d: event %d differs", iter, i)
			}
		}
	}
}
