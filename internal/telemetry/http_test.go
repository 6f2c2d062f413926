package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dmexplore/internal/telemetry/span"
)

func TestServeExpvarAndPprof(t *testing.T) {
	col := NewCollector(2)
	col.Spans().Ring(0).Record(span.StageFullSim, 0, time.Millisecond, 500)
	col.Spans().Ring(1).Record(span.StageCacheProbe, 0, time.Microsecond, 1)

	srv, err := Serve("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	vars := get("/debug/vars")
	if !strings.Contains(vars, ExpvarName) {
		t.Fatalf("/debug/vars missing %s:\n%s", ExpvarName, vars)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &doc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(doc[ExpvarName], &snap); err != nil {
		t.Fatalf("telemetry var not a snapshot: %v", err)
	}
	if snap.Sims != 1 || snap.Events != 500 || snap.CacheHits != 1 {
		t.Fatalf("live snapshot: %+v", snap)
	}

	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index unexpected:\n%.200s", body)
	}
	if body := get("/"); !strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("root index unexpected: %q", body)
	}

	// A second Serve (fresh collector) must re-point the published var,
	// not panic on duplicate expvar registration.
	col2 := NewCollector(1)
	srv2, err := Serve("127.0.0.1:0", col2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	vars2 := get("/debug/vars") // still via srv: expvar state is global
	var doc2 map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars2), &doc2); err != nil {
		t.Fatal(err)
	}
	var snap2 Snapshot
	if err := json.Unmarshal(doc2[ExpvarName], &snap2); err != nil {
		t.Fatal(err)
	}
	if snap2.Sims != 0 {
		t.Fatalf("published var not re-pointed at new collector: %+v", snap2)
	}
}

func TestServeMetricsAndHealthz(t *testing.T) {
	col := NewCollector(2)
	col.Use(span.NewRecorder(2, 64))
	col.Spans().Ring(0).Record(span.StageFullSim, 0, time.Millisecond, 500)
	col.Spans().Ring(1).Record(span.StageCacheProbe, 0, time.Microsecond, 1)

	srv, err := Serve("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"dmexplore_sims_total 1",
		"dmexplore_cache_hits_total 1",
		"dmexplore_events_replayed_total 500",
		`dmexplore_stage_duration_seconds_count{stage="full-sim"} 1`,
		`dmexplore_stage_duration_seconds_count{stage="compose"} 0`,
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	hresp, err := http.Get("http://" + srv.Addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || strings.TrimSpace(string(hbody)) != "ok" {
		t.Fatalf("/healthz: %s %q", hresp.Status, hbody)
	}
}

// TestCloseDrainsInFlightScrapeAndReleasesPort proves the graceful
// shutdown contract: a scrape in flight when Close is called still
// completes, and the port is free for rebinding once Close returns.
func TestCloseDrainsInFlightScrapeAndReleasesPort(t *testing.T) {
	col := NewCollector(1)
	srv, err := Serve("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	// The mux is private, so the slow in-flight request is a real one:
	// /debug/pprof/trace blocks for its ?seconds= duration.
	type result struct {
		status int
		body   string
		err    error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr + "/debug/pprof/trace?seconds=1")
		if err != nil {
			got <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- result{status: resp.StatusCode, body: string(body)}
	}()
	// Wait until the request is definitely in flight.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get("http://" + srv.Addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("in-flight scrape severed: %v", r.err)
		}
	case <-time.After(CloseTimeout + 2*time.Second):
		t.Fatal("in-flight scrape never completed")
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(CloseTimeout + 2*time.Second):
		t.Fatal("Close never returned")
	}

	// The exact port must be rebindable immediately.
	srv2, err := Serve(srv.Addr, col)
	if err != nil {
		t.Fatalf("port not released: %v", err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}
