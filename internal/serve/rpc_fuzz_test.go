package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// leasedJob starts an in-process coordinator running spec as job j1 and
// leases all of its shards to worker "w", returning the grants in
// shard order.
func leasedJob(t *testing.T, spec JobSpec) (*Coordinator, http.Handler, []LeaseGrant) {
	t.Helper()
	c, err := NewCoordinator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	rec := serveRequest(t, h, http.MethodPost, "/api/v1/lease", []byte(`{"worker":"w","slots":64}`))
	var resp LeaseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Grants) == 0 {
		t.Fatalf("lease: %d %s (%v)", rec.Code, rec.Body, err)
	}
	return c, h, resp.Grants
}

// migrateBody encodes job j1's migrate post of front (JSON) at
// generation 2.
func migrateBody(lease string, island int, front string) []byte {
	return fmt.Appendf(nil, `{"job_id":"j1","lease":%q,"island":%d,"gen":2,"front":%s}`, lease, island, front)
}

// TestMigrateRejectsMalformedFront: a migrate post whose island is not
// its lease's, whose members lie outside the space or whose vectors do
// not have one value per objective is refused with 400 before it joins
// the round, so the merge never sees it and the coordinator stays
// responsive. Well-formed posts from both islands still resolve.
func TestMigrateRejectsMalformedFront(t *testing.T) {
	_, h, grants := leasedJob(t, islandSpec(2))
	if len(grants) != 2 || grants[0].Shard.Island != 0 || grants[1].Shard.Island != 1 {
		t.Fatalf("grants %+v, want islands 0 and 1", grants)
	}
	l0, l1 := grants[0].Lease, grants[1].Lease
	for name, body := range map[string][]byte{
		"three values for two objectives": migrateBody(l1, 1, `[{"index":3,"values":[1,2,3]}]`),
		"island outside the job":          migrateBody(l0, 7, `[{"index":3,"values":[1,2]}]`),
		"another lease's island":          migrateBody(l0, 1, `[{"index":3,"values":[1,2]}]`),
		"member outside the space":        migrateBody(l0, 0, `[{"index":999999,"values":[1,2]}]`),
		"negative member":                 migrateBody(l0, 0, `[{"index":-1,"values":[1,2]}]`),
	} {
		if rec := serveRequest(t, h, http.MethodPost, "/api/v1/migrate", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d %s, want 400", name, rec.Code, rec.Body)
		}
	}
	if rec := serveRequest(t, h, http.MethodGet, "/api/v1/jobs", nil); rec.Code != http.StatusOK {
		t.Fatalf("job list after malformed posts: %d %s", rec.Code, rec.Body)
	}

	// Island 0 waits at the barrier for island 1's well-formed post.
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/migrate",
			bytes.NewReader(migrateBody(l0, 0, `[{"index":3,"values":[1,2]}]`))))
		first <- rec
	}()
	second := serveRequest(t, h, http.MethodPost, "/api/v1/migrate", migrateBody(l1, 1, `[{"index":5,"values":[2,1]}]`))
	var rec0 *httptest.ResponseRecorder
	select {
	case rec0 = <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("island 0's migrate never resolved")
	}
	for island, rec := range []*httptest.ResponseRecorder{rec0, second} {
		var resp MigrateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("island %d: %d %s (%v)", island, rec.Code, rec.Body, err)
		}
		if len(resp.Immigrants) != 2 || resp.Immigrants[0] != 3 || resp.Immigrants[1] != 5 {
			t.Fatalf("island %d immigrants %v, want [3 5]", island, resp.Immigrants)
		}
	}
}

// TestResultsRejectOutOfSpaceIndex: a result line whose record index lies
// outside the job's space is refused with 400 before it touches the job,
// so warmResults, which every later island lease carries, never ships
// it. An in-space line posted under the same lease is kept.
func TestResultsRejectOutOfSpaceIndex(t *testing.T) {
	c, h, grants := leasedJob(t, islandSpec(1))
	path := "/api/v1/results?lease=" + grants[0].Lease
	warm := func() []WarmResult {
		c.mu.Lock()
		defer c.mu.Unlock()
		return warmResults(c.jobs["j1"])
	}
	for _, body := range []string{
		`{"record":{"index":-4},"metrics":{"accesses":10,"footprint_bytes":20}}`,
		`{"record":{"index":999999},"metrics":{"accesses":10,"footprint_bytes":20}}`,
	} {
		if rec := serveRequest(t, h, http.MethodPost, path, []byte(body)); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d %s, want 400", body, rec.Code, rec.Body)
		}
		if w := warm(); len(w) != 0 {
			t.Fatalf("%s: warmResults %+v, want none", body, w)
		}
	}
	body := `{"record":{"index":3},"metrics":{"accesses":10,"footprint_bytes":20}}`
	if rec := serveRequest(t, h, http.MethodPost, path, []byte(body)); rec.Code != http.StatusOK {
		t.Fatalf("in-space result: status %d %s", rec.Code, rec.Body)
	}
	if w := warm(); len(w) != 1 || w[0].Index != 3 {
		t.Fatalf("warmResults %+v, want configuration 3 alone", w)
	}
}

// assertResultsInSpace fails unless every result c holds names a
// configuration of its job's space.
func assertResultsInSpace(t *testing.T, c *Coordinator) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, j := range c.jobs {
		for idx := range j.results {
			if !j.inSpace(idx) {
				t.Fatalf("job %s holds a result for configuration %d, outside its %d", id, idx, j.space.Size())
			}
		}
	}
}

// FuzzCoordinatorRPC posts arbitrary bodies to the worker-facing RPC
// endpoints (heartbeat, results, migrate, lease) of a coordinator running
// a one-island job under a live lease, so a well-formed migrate resolves
// at once. Every request must get a 2xx or a 4xx, never a panic, a hang
// or a 5xx, the job list and the job's status, front included, must
// still be served afterwards, and every result the job holds must name a
// configuration of its space.
func FuzzCoordinatorRPC(f *testing.F) {
	endpoints := []string{"/api/v1/heartbeat", "/api/v1/results?lease=L1", "/api/v1/migrate", "/api/v1/lease"}
	for i, bodies := range [][]string{
		{`{"worker":"w","leases":["L1"]}`, `{"worker":"x","leases":["L1","L9"],"telemetry":{"sims":3}}`, `{"leases":null}`},
		{
			`{"record":{"index":3,"labels":["a"]},"metrics":{"accesses":10,"footprint_bytes":20}}` + "\n" + `{"done":true}`,
			`{"record":{"index":-4},"metrics":{"failures":2}}` + "\n" + `{"failed":"boom"}`,
			`{"record":{"index":3}}` + "\n" + `{"record":{"index":3},"metrics":{}}`,
			`{"record":{"index":999999},"metrics":{"accesses":1}}`,
		},
		{
			`{"job_id":"j1","lease":"L1","island":0,"gen":2,"front":[{"index":3,"values":[1,2]}]}`,
			`{"job_id":"j1","lease":"L1","island":0,"gen":2,"front":[{"index":3,"values":[1,2,3]}]}`,
			`{"job_id":"j1","lease":"L1","island":7,"gen":2,"front":[]}`,
			`{"job_id":"j1","lease":"L1","island":0,"gen":-1,"front":[{"index":999999,"values":[1,2]}]}`,
			`{"job_id":"j9","lease":"L1"}`,
		},
		{`{"worker":"w2","slots":3}`, `{"slots":-1}`, `{"worker":"w","slots":1000000000}`},
	} {
		for _, body := range append(bodies, ``, `{`, `null`, `[]`, `{"worker":7}`) {
			f.Add(uint8(i), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		c, h, _ := leasedJob(t, islandSpec(1))
		path := endpoints[int(endpoint)%len(endpoints)]
		rec := serveRequest(t, h, http.MethodPost, path, body)
		if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("POST %s: status %d on %q: %s", path, rec.Code, body, rec.Body)
		}
		for _, get := range []string{"/api/v1/jobs", "/api/v1/jobs/j1"} {
			if rec := serveRequest(t, h, http.MethodGet, get, nil); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"j1"`) {
				t.Fatalf("GET %s after POST %s %q: %d %s", get, path, body, rec.Code, rec.Body)
			}
		}
		assertResultsInSpace(t, c)
	})
}
