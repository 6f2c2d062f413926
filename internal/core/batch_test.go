package core

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
)

// countingRunner wires an Observer that counts simulated (non-memo,
// non-cache) evaluations per index.
func countingRunner(t *testing.T, workers int) (*Runner, *sync.Mutex, map[int]int) {
	t.Helper()
	var mu sync.Mutex
	counts := make(map[int]int)
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: workers,
		Observer: func(res Result) {
			mu.Lock()
			counts[res.Index]++
			mu.Unlock()
		},
	}
	return r, &mu, counts
}

func TestBatcherDedupesWithinAndAcrossBatches(t *testing.T) {
	r, mu, counts := countingRunner(t, 2)
	space := EasyportSpace()
	sess, err := r.NewSession(space)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	b := newEvalBatcher(sess, "")

	// Duplicates within one batch: one evaluation each.
	res, err := b.getBatch([]int{5, 9, 5, 9, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("batch returned %d results", len(res))
	}
	for i, want := range []int{5, 9, 5, 9, 5} {
		if res[i].Index != want {
			t.Fatalf("slot %d: index %d want %d (request order lost)", i, res[i].Index, want)
		}
	}
	if res[0].Metrics != res[2].Metrics || res[1].Metrics != res[3].Metrics {
		t.Fatal("duplicate request slots did not share one result")
	}
	// Overlapping second batch: only the unseen index evaluates.
	if _, err := b.getBatch([]int{9, 11, 5}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, idx := range []int{5, 9, 11} {
		if counts[idx] != 1 {
			t.Fatalf("index %d evaluated %d times", idx, counts[idx])
		}
	}
	if len(counts) != 3 {
		t.Fatalf("evaluated %d distinct indices, want 3", len(counts))
	}
	if b.len() != 3 {
		t.Fatalf("batcher len %d, want 3", b.len())
	}
}

func TestBatcherLimit(t *testing.T) {
	r, _, _ := countingRunner(t, 1)
	space := EasyportSpace()
	sess, err := r.NewSession(space)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	b := newEvalBatcher(sess, "")
	if _, err := b.getBatch([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in     []int
		maxNew int
		want   int // prefix length
	}{
		{[]int{1, 2, 3, 4}, 1, 3}, // cached, cached, 1 new, cut
		{[]int{3, 3, 4}, 1, 2},    // duplicate new counts once
		{[]int{1, 2}, 0, 2},       // all cached: nothing new to cap
		{[]int{3, 1}, 0, 0},       // first is new, no budget
		{[]int{3, 4, 5}, 10, 3},   // budget beyond batch
		{nil, 5, 0},               // empty in, empty out
		{[]int{5, 1, 6, 7}, 2, 3}, // two new allowed, third cut
	}
	for i, c := range cases {
		if got := b.limit(c.in, c.maxNew); len(got) != c.want {
			t.Fatalf("case %d: limit(%v, %d) = %v, want prefix of %d",
				i, c.in, c.maxNew, got, c.want)
		}
	}
}

// TestBatcherLimitPreRanked pins limit's budget-prefix semantics for
// inputs in any deterministic, non-shuffled order (an NSGA-II offspring
// wave, a migrant list), possibly interleaving cached and unseen indices. The prefix rule and the new-index dedup must
// not depend on the input having been shuffled.
func TestBatcherLimitPreRanked(t *testing.T) {
	r, mu, counts := countingRunner(t, 2)
	space := EasyportSpace()
	sess, err := r.NewSession(space)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	b := newEvalBatcher(sess, "")
	if _, err := b.getBatch([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		in     []int
		maxNew int
		want   []int
	}{
		{"ascending ranked", []int{1, 2, 3, 4, 5, 6}, 2, []int{1, 2, 3, 4, 5}},
		{"descending ranked", []int{6, 5, 4, 3, 2, 1}, 2, []int{6, 5}},
		{"cached interleaved", []int{2, 7, 3, 7, 1, 8, 9}, 2, []int{2, 7, 3, 7, 1, 8}},
		{"all cached ranked", []int{3, 2, 1}, 0, []int{3, 2, 1}},
	}
	for _, c := range cases {
		got := b.limit(c.in, c.maxNew)
		if len(got) != len(c.want) {
			t.Fatalf("%s: limit(%v, %d) = %v, want %v", c.name, c.in, c.maxNew, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: limit(%v, %d) = %v, want %v", c.name, c.in, c.maxNew, got, c.want)
			}
		}
	}
	// Evaluating a limited pre-ranked batch must still dedup: the cached
	// members cost nothing, each new member exactly one simulation.
	if _, err := b.getBatch(b.limit([]int{2, 7, 3, 7, 1, 8, 9}, 2)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, idx := range []int{1, 2, 3, 7, 8} {
		if counts[idx] != 1 {
			t.Fatalf("index %d evaluated %d times", idx, counts[idx])
		}
	}
	if counts[9] != 0 {
		t.Fatalf("index 9 beyond the budget prefix was evaluated %d times", counts[9])
	}
}

func TestSessionEvalAfterClose(t *testing.T) {
	r := searchRunner(t)
	sess, err := r.NewSession(tinySpace())
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	sess.Close() // idempotent
	if _, err := sess.Eval([]int{0}, nil); err == nil {
		t.Fatal("eval on closed session accepted")
	}
}

func TestSessionReusesWorkersAcrossBatches(t *testing.T) {
	// A session must keep the full worker pool alive between waves: the
	// telemetry collector is per-session here, so every shard having sims
	// after many small batches proves the waves actually fanned out.
	col := telemetry.NewCollector(2)
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t),
		Workers: 2, Telemetry: col,
	}
	space := tinySpace()
	sess, err := r.NewSession(space)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < space.Size(); i += 2 {
		if _, err := sess.Eval([]int{i, i + 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Snapshot()
	if int(snap.Sims) != space.Size() {
		t.Fatalf("sims %d, want %d", snap.Sims, space.Size())
	}
}

// TestGuidedSearchJournalComplete pins the journal contract for guided
// searches: every configuration the search profiled — including
// batch-evaluated offspring that environmental selection later discarded
// — appears exactly once in the journal with its axis labels, and
// nothing else does.
func TestGuidedSearchJournalComplete(t *testing.T) {
	var buf bytes.Buffer
	journal := telemetry.NewJournal(&buf)
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t), Workers: 4,
		Observer: func(res Result) {
			if err := journal.Record(res.JournalRecord()); err != nil {
				t.Error(err)
			}
		},
	}
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	evolved, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 8, Budget: 48, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}

	profiled := make(map[int]bool)
	for _, res := range evolved {
		if profiled[res.Index] {
			t.Fatalf("Evolve returned index %d twice", res.Index)
		}
		profiled[res.Index] = true
	}
	journaled := make(map[int]int)
	for _, rec := range recs {
		journaled[rec.Index]++
		if len(rec.Labels) != len(space.Axes) {
			t.Fatalf("record %d has labels %v, want one per axis", rec.Index, rec.Labels)
		}
	}
	if len(recs) != len(evolved) {
		t.Fatalf("journal has %d records for %d profiled configurations", len(recs), len(evolved))
	}
	for idx := range profiled {
		if journaled[idx] != 1 {
			t.Fatalf("configuration %d journaled %d times", idx, journaled[idx])
		}
	}
	for idx := range journaled {
		if !profiled[idx] {
			t.Fatalf("journal has index %d the search never returned", idx)
		}
	}
}

// TestSearchDeterministicAcrossWorkers is the determinism contract of the
// batched evaluation layer: for a fixed seed, every guided strategy must
// produce the identical evaluation sequence, metrics and Pareto front for
// any worker count — the batch reduction order, not completion order,
// decides everything the search observes.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	tr := tinyTrace(t)
	space := EasyportSpace()
	objs := []string{profile.ObjAccesses, profile.ObjFootprint}
	const seed, budget = 17, 72

	type outcome struct {
		name      string
		indices   []int
		accesses  []uint64
		footprint []int64
		front     []int
	}
	capture := func(name string, evaluated []Result) outcome {
		o := outcome{name: name}
		for _, res := range evaluated {
			o.indices = append(o.indices, res.Index)
			o.accesses = append(o.accesses, res.Metrics.Accesses)
			o.footprint = append(o.footprint, res.Metrics.FootprintBytes)
		}
		front, _, err := ParetoSet(Feasible(evaluated), objs)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range front {
			o.front = append(o.front, f.Index)
		}
		return o
	}

	runAll := func(workers int) []outcome {
		r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Workers: workers}
		results, err := r.ScreenAndRefine(space, objs, 16, budget, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := []outcome{capture("screen", results)}
		results, err = r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: EvolveOptions{Population: 8, Budget: budget, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return append(out, capture("evolve", results))
	}

	ref := runAll(1)
	for _, workers := range []int{2, 4, 8, runtime.GOMAXPROCS(0)} {
		for i, o := range runAll(workers) {
			want := ref[i]
			if !slices.Equal(o.front, want.front) {
				t.Fatalf("%s: front %v with %d workers, %v with 1", o.name, o.front, workers, want.front)
			}
			if len(o.indices) != len(want.indices) {
				t.Fatalf("%s: %d evaluations with %d workers, %d with 1",
					o.name, len(o.indices), workers, len(want.indices))
			}
			for j := range o.indices {
				if o.indices[j] != want.indices[j] {
					t.Fatalf("%s: evaluation order diverges at %d with %d workers", o.name, j, workers)
				}
				if o.accesses[j] != want.accesses[j] || o.footprint[j] != want.footprint[j] {
					t.Fatalf("%s: metrics diverge at %d with %d workers", o.name, j, workers)
				}
			}
		}
	}
}
