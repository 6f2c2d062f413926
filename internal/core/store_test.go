package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/simheap"
	"dmexplore/internal/trace"
)

// storeRun builds a shape-valid pool run of n ops through the same
// serialized form the store itself round-trips.
func storeRun(t testing.TB, n int) *profile.PoolRun {
	t.Helper()
	st := profile.PoolRunState{
		Ops:      make([]int64, n),
		GAfter:   make([]int64, n+1),
		Counters: []simheap.LayerCounters{{Reads: uint64(n), Writes: 2 * uint64(n), PeakBytes: int64(n) * 64}},
		Cycles:   uint64(n) * 10,
	}
	for i := range st.Ops {
		st.Ops[i] = int64(64 * (i + 1))
		st.GAfter[i+1] = st.GAfter[i] + st.Ops[i]
	}
	run := profile.PoolRunFromState(st)
	if run == nil {
		t.Fatal("storeRun built an invalid state")
	}
	return run
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func openStore(t testing.TB, path string, budget int64) *Store {
	t.Helper()
	st, err := OpenStore(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeKeys returns the resident keys, coldest first.
func storeKeys(st *Store) []string {
	var keys []string
	st.entries.each(func(key string, _ storeEntry) { keys = append(keys, key) })
	return keys
}

// TestStoreRoundTrip saves metrics records and reloads them: lookups
// survive, and a key of one kind never serves the other.
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st := openStore(t, path, 0)
	if st.Len() != 0 {
		t.Fatal("fresh store not empty")
	}
	m := &profile.Metrics{Accesses: 42, FootprintBytes: 1000, EnergyNJ: 1.5, Cycles: 99}
	st.PutMetrics("m1", m)
	st.PutMetrics("m2", &profile.Metrics{Accesses: 7})
	st.PutPoolRun("p1", storeRun(t, 8))
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, path, 0)
	if re.Len() != 3 {
		t.Fatalf("reloaded %d entries, want 3", re.Len())
	}
	got, ok := re.Metrics("m1")
	if !ok || !reflect.DeepEqual(got, m) {
		t.Fatalf("metrics m1: %+v %v", got, ok)
	}
	if _, ok := re.Metrics("nope"); ok {
		t.Fatal("phantom metrics hit")
	}
	if _, ok := re.PoolRun("m1"); ok {
		t.Fatal("metrics record served as a pool run")
	}
	if _, ok := re.Metrics("p1"); ok {
		t.Fatal("pool-run record served as metrics")
	}
}

// TestStorePoolRunRoundTrip saves pool runs of different lengths and
// reloads them bit-identically.
func TestStorePoolRunRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st := openStore(t, path, 0)
	a, b := storeRun(t, 8), storeRun(t, 20)
	st.PutPoolRun("ka", a)
	st.PutPoolRun("kb", b)
	if _, ok := st.PoolRun("missing"); ok {
		t.Fatal("phantom hit")
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, path, 0)
	if re.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", re.Len())
	}
	if s := re.Stats(); s.Loaded != 2 || s.Stale != 0 {
		t.Fatalf("reload stats %+v", s)
	}
	for key, want := range map[string]*profile.PoolRun{"ka": a, "kb": b} {
		got, ok := re.PoolRun(key)
		if !ok {
			t.Fatalf("key %s lost across save/load", key)
		}
		if !reflect.DeepEqual(got.State(), want.State()) {
			t.Fatalf("key %s run diverged across save/load", key)
		}
	}
	if s := re.Stats(); s.Hits != 2 {
		t.Fatalf("hit accounting %+v", s)
	}
}

// TestStoreStats pins the accounting: lookups of either kind count hits
// and misses, replacing an entry keeps one resident copy, and a reload
// counts its entries loaded with fresh lookup counters.
func TestStoreStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st := openStore(t, path, 0)
	m1 := &profile.Metrics{Accesses: 1}
	st.PutMetrics("k1", m1)
	st.PutPoolRun("p1", storeRun(t, 4))
	if _, ok := st.Metrics("k1"); !ok {
		t.Fatal("k1 missing")
	}
	if _, ok := st.PoolRun("p1"); !ok {
		t.Fatal("p1 missing")
	}
	if _, ok := st.Metrics("k2"); ok {
		t.Fatal("phantom k2")
	}
	st.PutMetrics("k1", &profile.Metrics{Accesses: 2}) // superseded in place
	if st.Len() != 2 {
		t.Fatalf("%d resident entries after a replacement, want 2", st.Len())
	}
	if s := st.Stats(); s.Hits != 2 || s.Misses != 1 || s.Stale != 0 || s.Loaded != 0 {
		t.Fatalf("stats %+v", s)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, path, 0)
	if s := re.Stats(); s.Loaded != 2 || s.Stale != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("reloaded stats %+v", s)
	}
	if got, ok := re.Metrics("k1"); !ok || got.Accesses != 2 {
		t.Fatalf("replacement lost across save/load: %+v %v", got, ok)
	}
}

func TestStoreSaveNoopWhenClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := openStore(t, path, 0).Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("clean save created a file")
	}
}

func TestStoreRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	for _, bad := range []string{
		"not json\n",
		`{"v":2,"key":"","metrics":{}}` + "\n",
		`{"v":2,"key":"k"}` + "\n",
		`{"v":2,"key":"k","metrics":{},"run":{"ops":[],"g_after":[0]}}` + "\n",
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(path, 0); err == nil {
			t.Fatalf("malformed store accepted: %q", bad)
		}
	}
}

// TestStoreStaleVersionDropped pins the version gate for metrics
// records: records of any other schema version, version-less pre-merge
// ones included, are dropped at load, counted stale, and purged from disk
// by the next Save.
func TestStoreStaleVersionDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	lines := `{"key":"versionless","metrics":{"Accesses":1}}
{"v":1,"key":"old","metrics":{"Accesses":2}}
{"v":99,"key":"future","metrics":{"Accesses":3}}
{"v":2,"key":"current","metrics":{"Accesses":4}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, path, 0)
	if st.Len() != 1 {
		t.Fatalf("kept %d entries, want only the current one", st.Len())
	}
	if s := st.Stats(); s.Stale != 3 || s.Loaded != 1 {
		t.Fatalf("stats %+v", s)
	}
	if _, ok := st.Metrics("old"); ok {
		t.Fatal("stale entry served")
	}
	if m, ok := st.Metrics("current"); !ok || m.Accesses != 4 {
		t.Fatal("current entry lost")
	}
	// Dropping records marks the store dirty: Save rewrites, and the
	// rewritten file reloads clean.
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if s := openStore(t, path, 0).Stats(); s.Stale != 0 || s.Loaded != 1 {
		t.Fatalf("rewritten file still carries stale entries: %+v", s)
	}
}

// TestStorePoolRunStaleVersionPurged pins the same gate for pool runs:
// an older-version run and a current-version run of impossible shape are
// dropped and purged, the valid current run survives.
func TestStorePoolRunStaleVersionPurged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	good := storeRun(t, 4).State()
	run := fmt.Sprintf(`{"ops":%s,"g_after":%s,"counters":%s,"cycles":%d}`,
		mustJSON(t, good.Ops), mustJSON(t, good.GAfter), mustJSON(t, good.Counters), good.Cycles)
	lines := `{"v":1,"key":"old","run":` + run + `}
{"v":2,"key":"cur","run":` + run + `}
{"v":2,"key":"bad","run":{"ops":[64,128],"g_after":[0]}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, path, 0)
	if st.Len() != 1 {
		t.Fatalf("kept %d entries, want only the current-version one", st.Len())
	}
	if s := st.Stats(); s.Stale != 2 || s.Loaded != 1 {
		t.Fatalf("stale accounting %+v, want 2", s)
	}
	gotRun, ok := st.PoolRun("cur")
	if !ok || !reflect.DeepEqual(gotRun.State(), good) {
		t.Fatal("current-version pool run lost or altered")
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if s := openStore(t, path, 0).Stats(); s.Stale != 0 || s.Loaded != 1 {
		t.Fatalf("rewritten file still carries stale entries: %+v", s)
	}
}

// TestStoreBudgetEviction bounds the store: the least recently used
// entry goes first, a lookup refreshes an entry, and a reload under the
// same budget keeps the same survivors.
func TestStoreBudgetEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	one := storeEntry{run: storeRun(t, 256)}.bytes("k1")
	budget := 2*one + one/2 // fits two
	st := openStore(t, path, budget)
	st.PutPoolRun("k1", storeRun(t, 256))
	st.PutPoolRun("k2", storeRun(t, 256))
	st.PoolRun("k1") // k1 is now hotter than k2
	st.PutPoolRun("k3", storeRun(t, 256))
	if st.Len() != 2 {
		t.Fatalf("retained %d entries under a two-entry budget", st.Len())
	}
	if _, ok := st.PoolRun("k2"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if s := st.Stats(); s.Evicted != 1 || s.Bytes > budget {
		t.Fatalf("eviction stats %+v (budget %d)", s, budget)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, path, budget)
	if got, want := storeKeys(re), []string{"k1", "k3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reload kept %v (coldest first), want %v", got, want)
	}
}

// TestStoreSaveDeterministic requires Save's bytes to depend only on the
// store's contents: two saves of the same entries are byte-identical,
// and reloading under a tight budget keeps the same survivors every
// time.
func TestStoreSaveDeterministic(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.jsonl")
	st := openStore(t, first, 0)
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			st.PutMetrics(fmt.Sprintf("m%03d", i), &profile.Metrics{ConfigID: fmt.Sprint(i), Accesses: uint64(i)})
		} else {
			st.PutPoolRun(fmt.Sprintf("p%03d", i), storeRun(t, 1+i%7))
		}
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	// resave reopens src under budget and saves it unchanged to dst.
	resave := func(src, dst string, budget int64) []byte {
		re := openStore(t, src, budget)
		re.path, re.dirty = dst, true
		if err := re.Save(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if got := resave(first, filepath.Join(dir, "second.jsonl"), 0); !bytes.Equal(got, want) {
		t.Fatal("two saves of the same contents differ")
	}
	budget := st.Stats().Bytes / 3
	tight := resave(first, filepath.Join(dir, "tight1.jsonl"), budget)
	if again := resave(first, filepath.Join(dir, "tight2.jsonl"), budget); !bytes.Equal(again, tight) {
		t.Fatal("reloads under the same budget kept different survivors")
	}
	if kept := resave(filepath.Join(dir, "tight1.jsonl"), filepath.Join(dir, "tight3.jsonl"), budget); !bytes.Equal(kept, tight) {
		t.Fatal("survivors of a tight reload did not survive the next reload")
	}
	if n := bytes.Count(tight, []byte("\n")); n == 0 || n >= 200 {
		t.Fatalf("tight budget kept %d of 200 entries", n)
	}
}

// TestStoreConcurrentAccounting hammers lookups and puts from many
// goroutines — the -race guard for the store's accounting.
func TestStoreConcurrentAccounting(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "store.jsonl"), 0)
	const workers, each = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := &profile.Metrics{Accesses: uint64(w)}
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				st.Metrics(key) // always a miss: keys are per-goroutine unique
				st.PutMetrics(key, m)
				st.Metrics(key) // always a hit
				_ = st.Stats()
			}
		}(w)
	}
	wg.Wait()
	s := st.Stats()
	if s.Hits != workers*each || s.Misses != workers*each || s.Stale != 0 {
		t.Fatalf("stats %+v", s)
	}
	if st.Len() != workers*each {
		t.Fatalf("entries %d", st.Len())
	}
}

// TestCacheKeyDiscriminates checks the shared key derivation separates
// record kinds, configurations and every part of the hierarchy's cost
// model — including constants the hierarchy's String omits.
func TestCacheKeyDiscriminates(t *testing.T) {
	h := memhier.EmbeddedSoC()
	fp := h.Fingerprint()
	if storeKey(kindMetrics, fp, "cfgA") == storeKey(kindMetrics, fp, "cfgB") {
		t.Fatal("subject not in key")
	}
	if storeKey(kindMetrics, fp, "x") == storeKey(kindPoolRun, fp, "x") {
		t.Fatal("record kind not in key")
	}
	if memhier.FlatDRAM().Fingerprint() == fp {
		t.Fatal("hierarchy not in key")
	}
	if h.Fingerprint() != fp {
		t.Fatal("fingerprint not deterministic")
	}
	mutations := map[string]func(*memhier.Layer){
		"capacity":     func(l *memhier.Layer) { l.Capacity *= 2 },
		"read energy":  func(l *memhier.Layer) { l.ReadEnergy *= 2 },
		"write energy": func(l *memhier.Layer) { l.WriteEnergy += 0.01 },
		"read cycles":  func(l *memhier.Layer) { l.ReadCycles++ },
		"write cycles": func(l *memhier.Layer) { l.WriteCycles++ },
		"leakage":      func(l *memhier.Layer) { l.LeakagePower += 1e-6 },
	}
	for name, mutate := range mutations {
		v := mutateLayer(t, h, h.Largest(), mutate)
		if v.String() == h.String() && name == "capacity" {
			t.Fatal("capacity change invisible to String")
		}
		if v.Fingerprint() == fp {
			t.Errorf("%s change leaves the fingerprint unchanged", name)
		}
	}
}

// mutateLayer returns a copy of h with layer id changed by mutate.
func mutateLayer(t testing.TB, h *memhier.Hierarchy, id memhier.LayerID, mutate func(*memhier.Layer)) *memhier.Hierarchy {
	t.Helper()
	layers := h.Layers()
	mutate(&layers[id])
	v, err := memhier.New(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRunnerUsesCache(t *testing.T) {
	tr := tinyTrace(t)
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st := openStore(t, path, 0)
	space := tinySpace()
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Store: st}
	first, err := r.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != space.Size() {
		t.Fatalf("store has %d entries after sweep of %d", st.Len(), space.Size())
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}

	// Re-open and re-run: results must be identical and come from the
	// store (verified by poisoning one entry and seeing it surface).
	st2 := openStore(t, path, 0)
	cfg, _, _ := space.Config(0)
	key := storeKey(kindMetrics, r.Hierarchy.Fingerprint(), fmt.Sprintf("%s(%d)\x1f%s", tr.Name, tr.Len(), cfg.ID()))
	poisoned := &profile.Metrics{Accesses: 123456789}
	st2.PutMetrics(key, poisoned)
	r2 := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Store: st2}
	second, err := r2.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Metrics.Accesses != 123456789 {
		t.Fatal("store not consulted")
	}
	for i := 1; i < len(first); i++ {
		if first[i].Metrics.Accesses != second[i].Metrics.Accesses {
			t.Fatalf("config %d differs across stored runs", i)
		}
	}
}

// TestStoreComposesAcrossSessions is the cross-invocation contract: pool
// runs saved by one tool invocation serve composed evaluations in the
// next, bit-identical to the full path. The second invocation renames
// the trace, so its metrics records miss (trace identity is name and
// length) while the content-keyed pool runs still hit.
func TestStoreComposesAcrossSessions(t *testing.T) {
	space := EasyportSpace()
	full, err := easyportRunner(t, false).Sample(space, 48, 5)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "store.jsonl")
	first := openStore(t, path, 0)
	r1 := easyportRunner(t, true)
	r1.Store = first
	warm, err := r1.Sample(space, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "store-record", full, warm)
	if first.Len() <= len(warm) {
		t.Fatalf("first run stored %d entries for %d results: no pool runs", first.Len(), len(warm))
	}
	if err := first.Save(); err != nil {
		t.Fatal(err)
	}

	second := openStore(t, path, 0)
	r2 := easyportRunner(t, true)
	r2.Compiled = renamed(r2.Compiled, "easyport-copy")
	r2.Trace = nil
	r2.Store = second
	reuse, err := r2.Sample(space, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "store-reuse", full, reuse)
	for _, res := range reuse {
		if res.CacheHit {
			t.Fatalf("config %d served from a metrics record of another trace", res.Index)
		}
	}
	if composed := countComposed(reuse); composed <= countComposed(warm) {
		t.Fatalf("stored pool runs composed %d evals, cold run composed %d — no cross-invocation gain",
			composed, countComposed(warm))
	}
}

// TestStoreRunsMustCoverHierarchy hand-edits every stored pool run to
// carry no per-layer counters: reuse must fall back to replaying, never
// compose from (or index past) the short counters.
func TestStoreRunsMustCoverHierarchy(t *testing.T) {
	space := EasyportSpace()
	full, err := easyportRunner(t, false).Sample(space, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st := openStore(t, path, 0)
	r1 := easyportRunner(t, true)
	r1.Store = st
	if _, err := r1.Sample(space, 48, 5); err != nil {
		t.Fatal(err)
	}
	edited := 0
	st.entries.each(func(key string, e storeEntry) {
		if e.run != nil {
			state := e.run.State()
			state.Counters = nil
			st.entries.put(key, storeEntry{run: profile.PoolRunFromState(state)}, 0)
			edited++
		}
	})
	if edited == 0 {
		t.Fatal("no pool runs stored")
	}
	r2 := easyportRunner(t, true)
	r2.Compiled = renamed(r2.Compiled, "easyport-copy") // metrics records miss
	r2.Trace = nil
	r2.Store = st
	got, err := r2.Sample(space, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "short-counters", full, got)
}

// renamed returns a shallow copy of ct under another trace name.
func renamed(ct *trace.Compiled, name string) *trace.Compiled {
	c := *ct
	c.Name = name
	return &c
}

// TestStoreKeysIncludeHierarchy is the cross-hierarchy regression: a
// store recorded under one hierarchy must not serve another. Pool runs
// depend on layer capacities (where a standalone replay fails) and
// metrics on every cost constant, so a store recorded under a capped
// main memory, or under different energy constants, replayed under the
// stock hierarchy must give exactly the full-replay results.
func TestStoreKeysIncludeHierarchy(t *testing.T) {
	space := EasyportSpace()
	stock := memhier.EmbeddedSoC()
	variants := map[string]*memhier.Hierarchy{
		"capped main memory": mutateLayer(t, stock, stock.Largest(), func(l *memhier.Layer) { l.Capacity = 32 << 10 }),
		"scaled energy":      mutateLayer(t, stock, stock.Largest(), func(l *memhier.Layer) { l.ReadEnergy *= 3 }),
	}
	full, err := easyportRunner(t, false).Sample(space, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, variant := range variants {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		st := openStore(t, path, 0)
		rec := easyportRunner(t, true)
		rec.Hierarchy, rec.Store = variant, st
		if _, err := rec.Sample(space, 48, 5); err != nil {
			t.Fatal(err)
		}
		if err := st.Save(); err != nil {
			t.Fatal(err)
		}
		reuse := easyportRunner(t, true)
		reuse.Store = openStore(t, path, 0)
		got, err := reuse.Sample(space, 48, 5)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, name, full, got)
	}
}
