package core

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
)

// TestRunnerTelemetryAccounting runs a cold sweep, then a fully cached
// one, and requires the merged snapshot to account for every
// configuration exactly: sims + cache hits + memo hits == sweep size,
// per phase.
func TestRunnerTelemetryAccounting(t *testing.T) {
	tr := tinyTrace(t)
	space := tinySpace()
	size := space.Size()
	cache, err := OpenStore(filepath.Join(t.TempDir(), "store.jsonl"), 0)
	if err != nil {
		t.Fatal(err)
	}

	col := telemetry.NewCollector(4)
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tr,
		Store: cache, Telemetry: col, Workers: 4,
	}
	cold, err := r.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	if int(s.Sims+s.CacheHits+s.MemoHits) != size {
		t.Fatalf("cold sweep unaccounted: %+v", s)
	}
	if s.CacheHits != 0 || int(s.CacheMisses) != int(s.Sims) {
		t.Fatalf("cold sweep cache counts: %+v", s)
	}
	if s.Events == 0 || s.SimSecTotal <= 0 {
		t.Fatalf("no replay telemetry: %+v", s)
	}
	for _, res := range cold {
		if res.Duration <= 0 {
			t.Fatalf("config %d: no duration", res.Index)
		}
		if res.CacheHit {
			t.Fatalf("config %d: phantom cache hit", res.Index)
		}
	}

	// Warm phase into the same collector: every configuration must be a
	// cache or memo hit, zero new simulations.
	warm, err := r.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	s2 := col.Snapshot()
	if s2.Sims != s.Sims {
		t.Fatalf("warm sweep simulated: %+v", s2)
	}
	if int(s2.CacheHits+s2.MemoHits-s.MemoHits) != size {
		t.Fatalf("warm sweep not cache-served: %+v", s2)
	}
	hits := 0
	for _, res := range warm {
		if res.CacheHit {
			hits++
		}
	}
	if hits != int(s2.CacheHits) {
		t.Fatalf("result flags (%d) disagree with telemetry (%d)", hits, s2.CacheHits)
	}
	cs := cache.Stats()
	if cs.Hits != s2.CacheHits || cs.Misses != s2.CacheMisses {
		t.Fatalf("cache stats %+v disagree with telemetry %+v", cs, s2)
	}
}

// TestRunnerObserverJournals wires the Observer to a journal and checks
// one record per configuration with matching flags.
func TestRunnerObserverJournals(t *testing.T) {
	tr := tinyTrace(t)
	space := tinySpace()
	var (
		mu   sync.Mutex
		recs []telemetry.Record
	)
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tr,
		Observer: func(res Result) {
			rec := res.JournalRecord()
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		},
	}
	if _, err := r.Explore(space); err != nil {
		t.Fatal(err)
	}
	if len(recs) != space.Size() {
		t.Fatalf("journaled %d records for %d configurations", len(recs), space.Size())
	}
	seen := make(map[int]bool)
	for _, rec := range recs {
		if seen[rec.Index] {
			t.Fatalf("configuration %d journaled twice", rec.Index)
		}
		seen[rec.Index] = true
		if rec.Error != "" || rec.Accesses == 0 || rec.DurationMS <= 0 {
			t.Fatalf("bad record: %+v", rec)
		}
		if len(rec.Labels) != 2 {
			t.Fatalf("record labels: %+v", rec)
		}
	}
}

// TestRunnerErrorCarriesLabels pins the error-reporting fix: a failing
// configuration surfaces its index and axis labels in both the returned
// error and the journaled record.
func TestRunnerErrorCarriesLabels(t *testing.T) {
	tr := tinyTrace(t)
	space := tinySpace()
	// Sabotage the space: option "best" of axis "fit" now yields a
	// configuration that cannot build (unknown size-class spec).
	space.Axes[0].Options[1].Apply = func(c *alloc.Config) { c.General.Classes = "bogus" }

	col := telemetry.NewCollector(2)
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Telemetry: col, Workers: 2}
	var (
		mu   sync.Mutex
		recs []telemetry.Record
	)
	r.Observer = func(res Result) {
		mu.Lock()
		recs = append(recs, res.JournalRecord())
		mu.Unlock()
	}
	_, err := r.Explore(space)
	if err == nil {
		t.Fatal("sabotaged space explored cleanly")
	}
	msg := err.Error()
	if !strings.Contains(msg, "configuration") || !strings.Contains(msg, "best") {
		t.Fatalf("error lacks index/labels: %q", msg)
	}
	if s := col.Snapshot(); s.ErrorsSim == 0 {
		t.Fatalf("sim error not counted: %+v", s)
	}
	found := false
	for _, rec := range recs {
		if rec.Error != "" {
			found = true
			if !strings.Contains(rec.Error, "best") {
				t.Fatalf("journaled error lacks labels: %q", rec.Error)
			}
		}
	}
	if !found {
		t.Fatal("error never journaled")
	}
}

// TestSessionCountsEachStageOnce walks the same incremental Easyport
// waves with a flight recorder attached (Runner.Telemetry and
// Runner.Spans both set, perfbench's shape) and with the collector
// alone. Each walk is two sessions over one fresh Store, so the second
// is partly Store-served. The two collectors must agree counter for
// counter; in the traced walk each counter must equal its stage's
// aggregate in the recorder, every raw span must be one the aggregates
// count, and each partition build must be counted once.
func TestSessionCountsEachStageOnce(t *testing.T) {
	walk := func(spans *span.Recorder) (snap telemetry.Snapshot, partitions uint64) {
		t.Helper()
		store, err := OpenStore(filepath.Join(t.TempDir(), "store.jsonl"), 0)
		if err != nil {
			t.Fatal(err)
		}
		r := easyportRunner(t, true)
		r.Workers = 1 // which wave member builds a shared pool run is scheduling-dependent
		r.Store = store
		r.Telemetry = telemetry.NewCollector(1)
		r.Spans = spans
		for _, waves := range [][][]int{
			{{128, 129, 256, 257, 0}, {128, 256, 1, 130}},
			{{128, 129, 257, 258, 2}},
		} {
			sess, err := r.NewSession(EasyportSpace())
			if err != nil {
				t.Fatal(err)
			}
			for _, wave := range waves {
				if _, err := sess.Eval(wave, nil); err != nil {
					t.Fatal(err)
				}
			}
			partitions += uint64(sess.IncrementalCacheStats().PartitionEntries)
			sess.Close()
		}
		return r.Telemetry.Snapshot(), partitions
	}
	rec := span.NewRecorder(1, span.DefaultRingCapacity)
	traced, partitions := walk(rec)
	plain, _ := walk(nil)

	type counters struct {
		sims, partial, builds, composed, hits, misses, memo, events, skipped uint64
	}
	of := func(s telemetry.Snapshot) counters {
		return counters{s.Sims, s.PartialSims, s.PartitionBuilds, s.ComposedEvals,
			s.CacheHits, s.CacheMisses, s.MemoHits, s.Events, s.EventsSkipped}
	}
	got := of(traced)
	if got != of(plain) {
		t.Fatalf("traced counters %+v, plain %+v", got, of(plain))
	}
	if got.partial == 0 || got.composed == 0 || got.hits == 0 || got.misses == 0 || got.memo == 0 {
		t.Fatalf("walk misses a tier: %+v", got)
	}

	stages := rec.Snapshot()
	row := func(st span.Stage) span.StageSnapshot { return stages[st] }
	want := counters{
		sims:     row(span.StageFullSim).Count + row(span.StagePartialSim).Count,
		partial:  row(span.StagePartialSim).Count,
		builds:   row(span.StagePartitionBuild).Count,
		composed: row(span.StageCompose).Count,
		hits:     uint64(row(span.StageCacheProbe).Arg),
		misses:   row(span.StageCacheProbe).Count - uint64(row(span.StageCacheProbe).Arg),
		memo:     got.memo,
		events: uint64(row(span.StageFullSim).Arg + row(span.StagePartialSim).Arg +
			row(span.StagePartitionBuild).Arg),
		skipped: got.skipped,
	}
	if got != want {
		t.Fatalf("counters %+v, stage aggregates %+v", got, want)
	}
	if got.builds != partitions {
		t.Fatalf("%d partition builds counted for %d partitions", got.builds, partitions)
	}
	spans := rec.Ring(0).Len() + rec.Coord().Len() // the walk's one worker ring
	var counted uint64
	for _, st := range stages {
		counted += st.Count
	}
	if spans != counted {
		t.Fatalf("%d raw spans, %d counted by the stage aggregates", spans, counted)
	}
}
