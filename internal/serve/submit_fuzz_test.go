package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dmexplore/internal/core"
)

// serveRequest runs one request through h in process and fails the test
// if it takes longer than a generous bound: a hang, not a slow answer.
func serveRequest(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s %s hangs on %q", method, path, body)
	}
	return rec
}

// FuzzSubmitJob posts arbitrary bytes to the coordinator's job
// submission endpoint, in process and with no workers. Every body must
// get a 2xx or a 4xx, never a panic, a hang or a 5xx, and an accepted
// job's status, front included, must be served.
func FuzzSubmitJob(f *testing.F) {
	seed := func(spec JobSpec) {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The perfbench serve-islands job at two workers.
	seed(JobSpec{
		Workload: "easyport", WorkloadSeed: 1, Scale: 25,
		Space: "narrow", Hierarchy: "soc", Objectives: []string{"accesses", "footprint"},
		Strategy: "nsga2", Islands: 2, Population: 32, Budget: 128, Seed: 1, Incremental: true,
	})
	seed(sweepSpec())
	// The specs TestSpecValidateRejectsUnshardable rejects.
	unsharded := sweepSpec()
	unsharded.ShardSize = 0
	seed(unsharded)
	seed(islandSpec(core.EasyportSpace().Size() + 1))
	for _, body := range []string{
		``, `null`, `{`, `[]`, `{"strategy":"nsga2","islands":1000000000}`,
		`{"strategy":"sweep","workload":"nope"}`, `{"strategy":"sweep","hierarchy":"nope"}`,
		`{"strategy":"sweep","scale":-5}`, `{"strategy":"nsga2","population":3}`,
		`{"strategy":"sweep","space":"full","shard_size":1,"sample":-1}`,
		`{"objectives":["accesses"]}`, `{"strategy":"anneal"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := NewCoordinator(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		h := c.Handler()
		rec := serveRequest(t, h, http.MethodPost, "/api/v1/jobs", body)
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			return
		case rec.Code < 200 || rec.Code >= 300:
			t.Fatalf("status %d on %q: %s", rec.Code, body, rec.Body)
		}
		var resp SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.ID == "" {
			t.Fatalf("accepted %q with response %q: %v", body, rec.Body, err)
		}
		if st := serveRequest(t, h, http.MethodGet, "/api/v1/jobs/"+resp.ID, nil); st.Code != http.StatusOK {
			t.Fatalf("status of accepted job %s: %d %s", resp.ID, st.Code, st.Body)
		}
	})
}
