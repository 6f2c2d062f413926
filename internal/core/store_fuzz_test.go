package core

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/workload"
)

// FuzzOpenStore feeds the store loader arbitrary files: a real saved
// store and its truncated, corrupted, out-of-range and wrong-version
// variants seed the corpus, with the pool-run ("run") records earlier
// stores also kept, which load as dropped lines, alone and beside a
// metrics record. Every input must either fail to load or drop entries —
// never panic — and whatever loads must round-trip through Save byte for
// byte, with no pool run left, unbounded and under a tight budget.
func FuzzOpenStore(f *testing.F) {
	real := savedStore(f)
	f.Add(real)
	f.Add(real[:len(real)/2])
	corrupt := bytes.Clone(real)
	corrupt[len(corrupt)/3] ^= 0x20
	f.Add(corrupt)
	line := string(real[:bytes.IndexByte(real, '\n')+1])
	for _, variant := range []string{
		strings.Replace(line, `"v":2`, `"v":1`, 1),
		strings.Replace(line, `"v":2,`, ``, 1),
		`{"v":2,"key":"k","metrics":{"Accesses":1e30}}` + "\n",
		`{"v":2,"key":"k","metrics":{"Accesses":-1}}` + "\n",
		`{"v":2,"key":"k","run":{"ops":[64,128],"g_after":[0]}}` + "\n",
		`{"v":2,"key":"k","run":{"ops":[64],"g_after":[0,64],"failed":[true,false]}}` + "\n",
		`{"v":2,"key":"k","run":{"ops":[64],"g_after":[0,64],"counters":[]}}` + "\n",
		`{"v":2,"key":"k","metrics":{},"run":{"ops":[],"g_after":[0]}}` + "\n",
		`{"v":2,"key":"","metrics":{}}` + "\n",
		"\n\n" + line + line,
		line + `{"v":2,"key":"k","run":{"ops":[64,-1],"g_after":[0,64,64],"counters":[{"Reads":2}],"cycles":20}}` + "\n",
	} {
		f.Add([]byte(variant))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, budget := range []int64{0, 4096} {
			st := &Store{entries: newLRUCache[*profile.Metrics](budget)}
			if err := st.load(bytes.NewReader(data)); err != nil {
				continue
			}
			var first bytes.Buffer
			if err := st.write(&first); err != nil {
				t.Fatalf("budget %d: saving a loaded store: %v", budget, err)
			}
			re := &Store{entries: newLRUCache[*profile.Metrics](budget)}
			if err := re.load(bytes.NewReader(first.Bytes())); err != nil {
				t.Fatalf("budget %d: reloading a saved store: %v", budget, err)
			}
			if re.Len() != st.Len() || re.Stats().Stale != 0 {
				t.Fatalf("budget %d: %d entries reloaded as %d (%d stale)", budget, st.Len(), re.Len(), re.Stats().Stale)
			}
			var second bytes.Buffer
			if err := re.write(&second); err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(first.Bytes(), []byte(`"run":`)) {
				t.Fatalf("budget %d: a saved store carries a pool run:\n%s", budget, first.Bytes())
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("budget %d: save is not a fixed point:\n%s\nvs\n%s", budget, first.Bytes(), second.Bytes())
			}
		}
	})
}

// savedStore returns the file a small incremental sweep saves: metrics
// records from real replays.
func savedStore(f *testing.F) []byte {
	f.Helper()
	p := workload.DefaultEasyportParams()
	p.Packets = 40
	tr, err := p.Generate()
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "store.jsonl")
	st, err := OpenStore(path, 0)
	if err != nil {
		f.Fatal(err)
	}
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Workers: 1, Incremental: true, Store: st}
	if _, err := r.Sample(EasyportSpace(), 6, 1); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.write(&buf); err != nil {
		f.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"run":`)) {
		f.Fatal("seed store has pool runs")
	}
	return buf.Bytes()
}
