package trace

import (
	"fmt"
	"strings"
	"testing"
)

func twoSmallTraces(t *testing.T) (*Trace, *Trace) {
	t.Helper()
	a := NewBuilder("a")
	for i := 0; i < 50; i++ {
		id := a.Alloc(74)
		a.Access(id, 2, 1)
		a.Free(id)
	}
	b := NewBuilder("b")
	for i := 0; i < 30; i++ {
		id := b.Alloc(1024)
		b.Tick(100)
		b.Free(id)
	}
	return a.Build(), b.Build()
}

func TestInterleaveValidAndComplete(t *testing.T) {
	ta, tb := twoSmallTraces(t)
	merged, err := Interleave("combined", 1, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != ta.Len()+tb.Len() {
		t.Fatalf("len %d, want %d", merged.Len(), ta.Len()+tb.Len())
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged invalid: %v", err)
	}
	// Metric-relevant totals are preserved.
	pa, pb, pm := Analyze(ta), Analyze(tb), Analyze(merged)
	if pm.Allocs != pa.Allocs+pb.Allocs || pm.Frees != pa.Frees+pb.Frees {
		t.Fatal("op counts changed")
	}
	if pm.AccessWords != pa.AccessWords+pb.AccessWords {
		t.Fatal("access words changed")
	}
	if pm.TickCycles != pa.TickCycles+pb.TickCycles {
		t.Fatal("cycles changed")
	}
	// Both size populations present.
	if pm.Sizes.Count(74) != pa.Sizes.Count(74) || pm.Sizes.Count(1024) != pb.Sizes.Count(1024) {
		t.Fatal("size populations changed")
	}
}

func TestInterleaveActuallyInterleaves(t *testing.T) {
	ta, tb := twoSmallTraces(t)
	merged, err := Interleave("combined", 1, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	// The merged trace must not be a plain concatenation: find a
	// 1024-byte alloc before the last 74-byte alloc.
	last74 := -1
	first1024 := -1
	for i, e := range merged.Events {
		if e.Kind() != KindAlloc {
			continue
		}
		if e.Size() == 74 {
			last74 = i
		}
		if e.Size() == 1024 && first1024 == -1 {
			first1024 = i
		}
	}
	if first1024 == -1 || last74 == -1 || first1024 > last74 {
		t.Fatal("traces were concatenated, not interleaved")
	}
}

func TestInterleaveDeterministic(t *testing.T) {
	ta, tb := twoSmallTraces(t)
	m1, _ := Interleave("c", 9, ta, tb)
	m2, _ := Interleave("c", 9, ta, tb)
	for i := range m1.Events {
		if m1.Events[i] != m2.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	m3, _ := Interleave("c", 10, ta, tb)
	same := m1.Len() == m3.Len()
	if same {
		identical := true
		for i := range m1.Events {
			if m1.Events[i] != m3.Events[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical interleavings")
		}
	}
}

func TestInterleaveErrors(t *testing.T) {
	if _, err := Interleave("x", 1); err == nil {
		t.Fatal("empty interleave accepted")
	}
}

// TestMergeRejectsIDOverflow checks that Interleave fails, instead of
// wrapping, when shifting a trace's IDs into its namespace would pass
// MaxID, and still accepts a merge that ends exactly at MaxID.
func TestMergeRejectsIDOverflow(t *testing.T) {
	one := func(id uint64) *Trace {
		return &Trace{Name: fmt.Sprint(id), Events: []Event{AllocEvent(id, 8), TickEvent(1), FreeEvent(id)}}
	}
	for _, ts := range [][]*Trace{{one(MaxID), one(1)}, {one(1), one(MaxID - 1)}} {
		if _, err := Interleave("m", 1, ts...); err == nil || !strings.Contains(err.Error(), "61-bit limit") {
			t.Errorf("Interleave(%s, %s): err %v, want the 61-bit limit", ts[0].Name, ts[1].Name, err)
		}
	}
	m, err := Interleave("m", 1, one(1), one(MaxID-2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := maxID(m); got != MaxID {
		t.Errorf("largest merged id %d, want MaxID", got)
	}
}
