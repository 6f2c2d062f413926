package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/serve"
	"dmexplore/internal/telemetry"
)

// servePoll is the workers' idle lease-poll interval: short enough that
// a submitted job is picked up at once, long enough that idle polling
// costs the coordinator little.
const servePoll = 10 * time.Millisecond

// runServeIslands runs the nsga-easyport search as an island-model job
// through an in-process coordinator on loopback HTTP, one worker and one
// island per CPU: the service's RPC, leases, journal streaming and
// migration barrier on top of the same evaluation stack.
func runServeIslands(b *bench, t *tracer) (*iter, error) {
	it := newIter()
	it.root = t.begin("iteration serve-islands", -1)
	setupStart := time.Now()
	// Workers regenerate the trace from the job spec; the harness makes
	// the same one for the set-up cost and for the correctness oracle.
	_, ct, err := genTrace(b, t, it, "easyport", searchScale)
	if err != nil {
		return nil, err
	}
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	mon := &rpcMonitor{next: coord.Handler(), t: t, parent: it.root, workers: map[string]bool{}}
	mon.polled = sync.NewCond(&mon.mu)
	srv := httptest.NewServer(mon)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var fleet sync.WaitGroup
	defer func() {
		cancel()
		fleet.Wait()
	}()
	fleetStart := time.Now()
	for i := 0; i < b.workers; i++ {
		w := &serve.Worker{
			Coordinator: srv.URL, ID: fmt.Sprintf("w%d", i+1),
			Slots: 1, SessionWorkers: 1, Poll: servePoll,
		}
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			_ = w.Run(ctx) // returns ctx's error once cancelled
		}()
	}
	mon.waitPolled(b.workers)
	t.add("serve.fleet_start", it.root, fleetStart, time.Since(fleetStart))
	it.setup = time.Since(setupStart)

	exploreStart := time.Now()
	var mem memDelta
	mem.start()
	jr, err := openJournal(b, t, it)
	if err != nil {
		return nil, err
	}
	client := &serve.Client{Base: srv.URL}
	// The search split into one even-sized island per worker.
	islandPop := max(4, nsgaPopulation/b.workers) &^ 1
	spec := serve.JobSpec{
		Workload: "easyport", WorkloadSeed: b.workloadSeed, Scale: b.traceScale(searchScale),
		Space: "narrow", Hierarchy: "soc", Objectives: objectives,
		Strategy: "nsga2", Islands: b.workers,
		Population: islandPop, Budget: max(islandPop, nsgaBudget/b.workers),
		Seed: b.searchSeed, Incremental: true,
	}
	byIndex := map[int]core.Result{}
	var st serve.JobStatus
	it.call, err = t.call("serve.job", it.root, func() error {
		id, err := client.Submit(spec)
		if err != nil {
			return err
		}
		st, err = client.FollowJournal(ctx, id, 0, func(rec telemetry.Record) {
			jr.record(rec)
			if _, dup := byIndex[rec.Index]; !dup {
				byIndex[rec.Index] = resultOf(rec)
			}
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if st.State != "done" {
		return nil, fmt.Errorf("job ended %s: %s", st.State, st.Error)
	}
	results := make([]core.Result, 0, len(byIndex))
	for _, r := range byIndex {
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	space := core.EasyportSpace()
	if err := publish(b, t, it, "serve-islands", space.AxisLabels(), results); err != nil {
		return nil, err
	}
	if err := jr.close(t, it); err != nil {
		return nil, err
	}
	it.explore = time.Since(exploreStart)
	it.alloc = mem.stop()
	t.end(it.root)

	it.evals, it.failed = len(results), countErrors(results)
	it.print = fingerprint(results)
	resultLayers(it, results, ct.Len(), b.workers)
	mon.report(it)
	h := memhier.EmbeddedSoC()
	it.verify = func() (int, int, error) {
		return verifyFastPaths(space, ct, h, b.searchSeed, results)
	}
	return it, nil
}

// resultOf rebuilds a Result from a streamed journal record: the
// simulated objectives and the tier that served it.
func resultOf(rec telemetry.Record) core.Result {
	res := core.Result{
		Index: rec.Index, Labels: rec.Labels,
		Duration:    time.Duration(rec.DurationMS * 1e6),
		MemoHit:     rec.MemoHit,
		Incremental: rec.Incremental, Composed: rec.Composed, EventsSkipped: rec.EventsSkipped,
	}
	if rec.Error != "" {
		res.Err = fmt.Errorf("%s", rec.Error)
		return res
	}
	res.Metrics = &profile.Metrics{
		Accesses: rec.Accesses, FootprintBytes: rec.FootprintBytes,
		EnergyNJ: rec.EnergyNJ, Cycles: rec.Cycles, Failures: rec.Failures,
	}
	return res
}

// rpcMonitor wraps the coordinator's handler: it times every request by
// route and notes which workers have polled for a lease.
type rpcMonitor struct {
	next   http.Handler
	t      *tracer
	parent int

	mu      sync.Mutex
	polled  *sync.Cond
	workers map[string]bool
	ms      map[string][]float64
}

func rpcRoute(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/api/v1/")
	switch {
	case r.Method == http.MethodPost && (p == "lease" || p == "heartbeat" || p == "results" || p == "migrate"):
		return p
	case r.Method == http.MethodGet && strings.HasPrefix(p, "jobs/") && !strings.Contains(p[len("jobs/"):], "/"):
		return "status"
	case strings.HasSuffix(p, "/journal"):
		return "journal"
	case p == "jobs":
		return "submit"
	}
	return "other"
}

func (m *rpcMonitor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := rpcRoute(r)
	if route == "lease" {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			var req serve.LeaseRequest
			if json.Unmarshal(body, &req) == nil {
				m.mu.Lock()
				m.workers[req.Worker] = true
				m.polled.Broadcast()
				m.mu.Unlock()
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	start := time.Now()
	m.next.ServeHTTP(w, r)
	d := time.Since(start)
	m.mu.Lock()
	if m.ms == nil {
		m.ms = map[string][]float64{}
	}
	m.ms[route] = append(m.ms[route], float64(d)/1e6)
	m.mu.Unlock()
	if route != "lease" {
		// Idle lease polls would swamp the trace; the counts keep them.
		m.t.add("serve.rpc."+route, m.parent, start, d)
	}
}

// waitPolled blocks until n distinct workers have asked for a lease.
func (m *rpcMonitor) waitPolled(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.workers) < n {
		m.polled.Wait()
	}
}

// report adds the per-route request counts and median latencies.
func (m *rpcMonitor) report(it *iter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, route := range []string{"lease", "heartbeat", "results", "migrate", "status"} {
		it.layer["serve.rpc."+route+".count"] = float64(len(m.ms[route]))
		it.layer["serve.rpc."+route+".p50_ms"] = median(m.ms[route])
	}
	it.layer["serve.migrate_wait_s"] = sumOf(m.ms["migrate"]) / 1e3
}
