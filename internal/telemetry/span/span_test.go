package span

import (
	"bytes"
	"testing"
	"time"
)

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(2, 8)
	r.Ring(0).Record(StageFullSim, 10*time.Microsecond, 5*time.Microsecond, 100)
	r.Ring(1).Record(StagePartialSim, 20*time.Microsecond, 3*time.Microsecond, 40)
	r.Coord().Record(StageBatchWave, 5*time.Microsecond, 30*time.Microsecond, 2)

	snap := r.Snapshot()
	if len(snap) != NumStages {
		t.Fatalf("snapshot has %d stages, want %d", len(snap), NumStages)
	}
	byName := map[string]StageSnapshot{}
	for _, row := range snap {
		byName[row.Name] = row
	}
	if row := byName["full-sim"]; row.Count != 1 || row.Seconds != 5e-6 {
		t.Fatalf("full-sim row: %+v", row)
	}
	if row := byName["partial-sim"]; row.Count != 1 {
		t.Fatalf("partial-sim row: %+v", row)
	}
	if row := byName["batch-wave"]; row.Count != 1 || row.Seconds != 30e-6 {
		t.Fatalf("batch-wave row: %+v", row)
	}
	if row := byName["compile"]; row.Count != 0 {
		t.Fatalf("untouched stage recorded spans: %+v", row)
	}

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, dropped, err := ReadTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d spans", dropped)
	}
	var xEvents, metaEvents int
	names := map[string]bool{}
	for _, ev := range events {
		switch ev.Phase {
		case "X":
			xEvents++
			names[ev.Name] = true
		case "M":
			metaEvents++
		}
	}
	if xEvents != 3 {
		t.Fatalf("trace has %d X events, want 3", xEvents)
	}
	if metaEvents != 3 { // worker 0, worker 1, coordinator
		t.Fatalf("trace has %d metadata events, want 3", metaEvents)
	}
	for _, want := range []string{"full-sim", "partial-sim", "batch-wave"} {
		if !names[want] {
			t.Fatalf("trace missing %q: %v", want, names)
		}
	}
}

func TestRingWrapKeepsNewestAndCountsDropped(t *testing.T) {
	r := NewRecorder(1, 4)
	ring := r.Ring(0)
	for i := 0; i < 10; i++ {
		ring.Record(StageFullSim, time.Duration(i)*time.Microsecond, time.Microsecond, int64(i))
	}
	if got := ring.Len(); got != 10 {
		t.Fatalf("ring recorded %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("dropped %d, want 6", got)
	}
	spans := r.ringSpans(0)
	if len(spans) != 4 {
		t.Fatalf("live window has %d spans, want 4", len(spans))
	}
	// Oldest-first live window: args 6,7,8,9.
	for i, sp := range spans {
		if sp.Arg != int64(6+i) {
			t.Fatalf("span %d arg %d, want %d", i, sp.Arg, 6+i)
		}
	}
	// Aggregates keep the full count even after the buffer wrapped.
	if row := r.Snapshot()[StageFullSim]; row.Count != 10 {
		t.Fatalf("aggregate count %d, want 10", row.Count)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if ring := r.Ring(0); ring != nil {
		t.Fatal("nil recorder returned a ring")
	}
	if ring := r.Coord(); ring != nil {
		t.Fatal("nil recorder returned a coord ring")
	}
	var ring *Ring
	ring.Record(StageFullSim, 0, time.Microsecond, 0) // must not panic
	ring.Since(StageFullSim, time.Now(), 0)
	if ring.Len() != 0 {
		t.Fatal("nil ring recorded")
	}
	if r.Snapshot() != nil || r.Dropped() != 0 || r.Workers() != 0 {
		t.Fatal("nil recorder snapshot not empty")
	}
}

// TestRecordZeroAlloc guards the hot-path contract: recording a span
// into a warm ring performs no heap allocations.
func TestRecordZeroAlloc(t *testing.T) {
	r := NewRecorder(1, 64)
	ring := r.Ring(0)
	start := time.Now()
	avg := testing.AllocsPerRun(100, func() {
		ring.Since(StageFullSim, start, 1234)
	})
	if avg != 0 {
		t.Fatalf("Ring.Since allocates %.1f per record, want 0", avg)
	}
	avg = testing.AllocsPerRun(100, func() {
		ring.Record(StageCacheProbe, time.Microsecond, time.Microsecond, 1)
	})
	if avg != 0 {
		t.Fatalf("Ring.Record allocates %.1f per record, want 0", avg)
	}
}

func TestStageNamesStable(t *testing.T) {
	want := []string{
		"log-ingest", "trace-ingest", "block-decode", "compile",
		"partition-build", "batch-wave",
		"partial-sim", "full-sim", "cache-probe", "journal-flush",
		"compose",
	}
	stages := Stages()
	if len(stages) != len(want) {
		t.Fatalf("%d stages, want %d", len(stages), len(want))
	}
	for i, st := range stages {
		if st.String() != want[i] {
			t.Fatalf("stage %d named %q, want %q", i, st.String(), want[i])
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage not unknown")
	}
}
