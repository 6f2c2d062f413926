package serve

import (
	"context"
	"io"
	"math"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/telemetry"
)

// startCoordinator spins up a coordinator behind an httptest server and
// returns it with a client pointed at it.
func startCoordinator(t *testing.T, opts Options) (*Coordinator, *httptest.Server, *Client) {
	t.Helper()
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		srv.Close()
		coord.Close()
	})
	return coord, srv, &Client{Base: srv.URL}
}

// startWorker runs a worker against the coordinator until the returned
// stop function is called (which waits for the worker to drain).
func startWorker(t *testing.T, base, id string, slots int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w := &Worker{Coordinator: base, ID: id, Slots: slots, SessionWorkers: 2, Poll: 10 * time.Millisecond}
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

// waitJob polls until the job leaves the running state.
func waitJob(t *testing.T, client *Client, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := client.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after %v: %+v", id, timeout, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// collectJournal drains the job's full journal.
func collectJournal(t *testing.T, client *Client, id string) []telemetry.Record {
	t.Helper()
	var recs []telemetry.Record
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.FollowJournal(ctx, id, 0, func(rec telemetry.Record) {
		recs = append(recs, rec)
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// assertRecordMatchesResult compares a journal record's headline metrics
// bit-for-bit against a locally evaluated result.
func assertRecordMatchesResult(t *testing.T, rec telemetry.Record, res core.Result) {
	t.Helper()
	if rec.Index != res.Index {
		t.Fatalf("record index %d vs local %d — the walks diverged", rec.Index, res.Index)
	}
	m := res.Metrics
	if m == nil {
		t.Fatalf("local result %d has no metrics", res.Index)
	}
	if rec.Accesses != m.Accesses || rec.FootprintBytes != m.FootprintBytes ||
		rec.Cycles != m.Cycles ||
		math.Float64bits(rec.EnergyNJ) != math.Float64bits(m.EnergyNJ) {
		t.Fatalf("config %d: distributed metrics diverge from local\n  rec %+v\n  loc %+v",
			res.Index, rec, m)
	}
}

func sweepSpec() JobSpec {
	return JobSpec{
		Workload: "easyport", WorkloadSeed: 1, Scale: 5,
		Space: "narrow", Hierarchy: "soc",
		Objectives: []string{"accesses", "footprint"},
		Strategy:   "sweep", Sample: 64, SampleSeed: 5, ShardSize: 20,
	}
}

func islandSpec(islands int) JobSpec {
	return JobSpec{
		Workload: "easyport", WorkloadSeed: 1, Scale: 5,
		Space: "narrow", Hierarchy: "soc",
		Objectives: []string{"accesses", "footprint"},
		Strategy:   "nsga2", Islands: islands,
		Population: 8, Budget: 48, Seed: 11,
		MigrationEvery: 2, MigrationK: 2,
	}
}

// TestWorkerLeasesWhenASlotFrees: a one-slot worker whose idle poll is a
// minute leases a sweep's second shard as soon as its first returns,
// instead of idling out the poll interval with a slot free.
func TestWorkerLeasesWhenASlotFrees(t *testing.T) {
	_, _, client := startCoordinator(t, Options{})
	spec := sweepSpec()
	spec.ShardSize = 32 // two shards of the 64 sampled configurations
	id, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	done := make(chan struct{})
	t.Cleanup(func() {
		cancel()
		<-done
	})
	w := &Worker{Coordinator: client.Base, ID: "w1", Slots: 1, SessionWorkers: 2, Poll: time.Minute}
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	start := time.Now()
	st := waitJob(t, client, id, 15*time.Second)
	if st.State != "done" || st.ShardsDone != 2 {
		t.Fatalf("job ended %s with %d shards done: %s", st.State, st.ShardsDone, st.Error)
	}
	t.Logf("two shards on one slot in %v", time.Since(start))
}

// TestSweepShardsMatchLocal: a sharded, sampled sweep over the service
// must evaluate exactly the configurations a local run draws, with
// bit-identical metrics.
func TestSweepShardsMatchLocal(t *testing.T) {
	_, _, client := startCoordinator(t, Options{})
	id, err := client.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, client.Base, "w1", 2)
	st := waitJob(t, client, id, 60*time.Second)
	if st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	spec := sweepSpec().withDefaults()
	if st.Results != spec.Sample {
		t.Fatalf("evaluated %d configurations, want %d", st.Results, spec.Sample)
	}
	if want := (spec.Sample + spec.ShardSize - 1) / spec.ShardSize; st.ShardsDone != want {
		t.Fatalf("%d shards done, want %d", st.ShardsDone, want)
	}

	// Local reference over the same environment and index order.
	env, err := BuildEnv(spec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := env.Runner.NewSession(env.Space)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	indices := sweepIndices(spec, env.Space.Size())
	local, err := sess.Eval(indices, nil)
	if err != nil {
		t.Fatal(err)
	}
	byIndex := make(map[int]core.Result, len(local))
	for _, res := range local {
		byIndex[res.Index] = res
	}

	recs := collectJournal(t, client, id)
	if len(recs) != spec.Sample {
		t.Fatalf("journal has %d records, want %d", len(recs), spec.Sample)
	}
	for _, rec := range recs {
		res, ok := byIndex[rec.Index]
		if !ok {
			t.Fatalf("service evaluated index %d the local sample never drew", rec.Index)
		}
		assertRecordMatchesResult(t, rec, res)
		if rec.Shard == 0 || rec.Worker == "" {
			t.Fatalf("record missing distributed provenance: %+v", rec)
		}
		if rec.Island != 0 {
			t.Fatalf("sweep record carries island stamp: %+v", rec)
		}
	}
}

// TestOneIslandMatchesSerialEvolve is the determinism acceptance test:
// a 1-island job on one worker must stream the exact evaluation walk —
// same configurations, same order, bit-identical metrics — as the
// serial NSGA-II at the same seed.
func TestOneIslandMatchesSerialEvolve(t *testing.T) {
	spec := islandSpec(1).withDefaults()
	_, _, client := startCoordinator(t, Options{})
	id, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, client.Base, "w1", 1)
	if st := waitJob(t, client, id, 60*time.Second); st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	env, err := BuildEnv(spec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := env.Runner.EvolveIsland(env.Space, spec.Objectives, core.IslandOptions{EvolveOptions: core.EvolveOptions{
		Population: spec.Population, Budget: spec.Budget, Seed: spec.Seed,
	}})
	if err != nil {
		t.Fatal(err)
	}

	recs := collectJournal(t, client, id)
	if len(recs) != len(serial) {
		t.Fatalf("distributed walk evaluated %d configurations, serial %d", len(recs), len(serial))
	}
	for i, rec := range recs {
		assertRecordMatchesResult(t, rec, serial[i])
		if rec.Island != 1 {
			t.Fatalf("record %d island stamp %d, want 1", i, rec.Island)
		}
	}
}

// TestMultiIslandDeterministicAcrossWorkerCounts: the per-island walks
// and the final front must not depend on how the islands are packed onto
// workers — 1 worker holding both islands versus 2 workers holding one
// each.
func TestMultiIslandDeterministicAcrossWorkerCounts(t *testing.T) {
	type islandWalks map[int][]int

	runFleet := func(workers int) (islandWalks, []FrontPoint) {
		t.Helper()
		_, _, client := startCoordinator(t, Options{})
		id, err := client.Submit(islandSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		var stops []func()
		if workers == 1 {
			stops = append(stops, startWorker(t, client.Base, "w1", 2))
		} else {
			for i := 0; i < workers; i++ {
				stops = append(stops, startWorker(t, client.Base, "w"+string(rune('1'+i)), 1))
			}
		}
		st := waitJob(t, client, id, 60*time.Second)
		if st.State != "done" {
			t.Fatalf("%d-worker job ended %s: %s", workers, st.State, st.Error)
		}
		walks := islandWalks{}
		for _, rec := range collectJournal(t, client, id) {
			walks[rec.Island] = append(walks[rec.Island], rec.Index)
		}
		for _, stop := range stops {
			stop()
		}
		sort.Slice(st.Front, func(i, k int) bool { return st.Front[i].Index < st.Front[k].Index })
		return walks, st.Front
	}

	walks1, front1 := runFleet(1)
	walks2, front2 := runFleet(2)

	if len(walks1) != 2 || len(walks2) != 2 {
		t.Fatalf("island walks missing: %d vs %d islands", len(walks1), len(walks2))
	}
	for island, w1 := range walks1 {
		w2 := walks2[island]
		if len(w1) != len(w2) {
			t.Fatalf("island %d walk length %d vs %d across fleet shapes", island, len(w1), len(w2))
		}
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatalf("island %d walk diverges at step %d: %d vs %d", island, i, w1[i], w2[i])
			}
		}
	}
	if len(front1) != len(front2) {
		t.Fatalf("front size %d vs %d across fleet shapes", len(front1), len(front2))
	}
	for i := range front1 {
		if front1[i].Index != front2[i].Index {
			t.Fatalf("front member %d: %d vs %d", i, front1[i].Index, front2[i].Index)
		}
	}
}

// TestCoordinatorKillAndResume: kill the coordinator and the worker
// mid-job, reopen the coordinator over the same state directory, attach
// a fresh worker — the job must complete with the same results and the
// same front an uninterrupted run produces.
func TestCoordinatorKillAndResume(t *testing.T) {
	spec := islandSpec(1)
	spec.Budget = 96
	spec.EvalLatencyMS = 5 // slow the walk so the kill lands mid-run

	// Uninterrupted reference.
	_, _, refClient := startCoordinator(t, Options{})
	refID, err := refClient.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, refClient.Base, "ref", 1)
	refSt := waitJob(t, refClient, refID, 120*time.Second)
	if refSt.State != "done" {
		t.Fatalf("reference job ended %s: %s", refSt.State, refSt.Error)
	}
	refRecs := collectJournal(t, refClient, refID)

	// Interrupted run over a persistent state directory.
	stateDir := t.TempDir()
	coord, err := NewCoordinator(Options{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	client := &Client{Base: srv.URL}
	id, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	stop := startWorker(t, client.Base, "victim", 1)
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := client.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Records >= 16 || st.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job produced no records to interrupt")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop() // worker drains its in-flight shard, which is abandoned (no Done)
	srv.Close()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same state: the shard re-issues with warm results,
	// the resumed island fast-forwards and finishes the walk.
	_, _, client2 := startCoordinator(t, Options{StateDir: stateDir})
	startWorker(t, client2.Base, "heir", 1)
	st := waitJob(t, client2, id, 120*time.Second)
	if st.State != "done" {
		t.Fatalf("resumed job ended %s: %s", st.State, st.Error)
	}
	if st.Results != refSt.Results {
		t.Fatalf("resumed job evaluated %d configurations, reference %d", st.Results, refSt.Results)
	}
	recs := collectJournal(t, client2, id)
	if len(recs) != len(refRecs) {
		t.Fatalf("resumed journal %d records, reference %d", len(recs), len(refRecs))
	}
	for i := range recs {
		if recs[i].Index != refRecs[i].Index {
			t.Fatalf("resumed walk diverges at record %d: %d vs %d", i, recs[i].Index, refRecs[i].Index)
		}
		if recs[i].Accesses != refRecs[i].Accesses ||
			recs[i].FootprintBytes != refRecs[i].FootprintBytes ||
			math.Float64bits(recs[i].EnergyNJ) != math.Float64bits(refRecs[i].EnergyNJ) {
			t.Fatalf("resumed metrics diverge at record %d (index %d)", i, recs[i].Index)
		}
	}
	sort.Slice(st.Front, func(i, k int) bool { return st.Front[i].Index < st.Front[k].Index })
	sort.Slice(refSt.Front, func(i, k int) bool { return refSt.Front[i].Index < refSt.Front[k].Index })
	if len(st.Front) != len(refSt.Front) {
		t.Fatalf("resumed front %d members, reference %d", len(st.Front), len(refSt.Front))
	}
	for i := range st.Front {
		if st.Front[i].Index != refSt.Front[i].Index {
			t.Fatalf("resumed front member %d: %d vs %d", i, st.Front[i].Index, refSt.Front[i].Index)
		}
	}
}

// TestLeaseExpiryReissuesShard drives the work-stealing path with an
// injected clock: a worker that stops heartbeating forfeits its shard to
// the next worker, and learns the lease is lost on its next heartbeat.
func TestLeaseExpiryReissuesShard(t *testing.T) {
	now := time.Unix(1000, 0)
	_, _, client := startCoordinator(t, Options{
		LeaseTTL: time.Second,
		Now:      func() time.Time { return now },
	})
	spec := sweepSpec()
	spec.Sample = 10
	spec.ShardSize = 10 // one shard
	id, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	_ = id

	first, err := client.Lease("w1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Grants) != 1 {
		t.Fatalf("w1 got %d grants, want the single shard", len(first.Grants))
	}
	// The shard is leased: nothing left for w2.
	starve, err := client.Lease("w2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(starve.Grants) != 0 {
		t.Fatalf("w2 stole a live lease: %+v", starve.Grants)
	}
	// w1 goes silent past the TTL: the shard re-issues to w2.
	now = now.Add(2 * time.Second)
	stolen, err := client.Lease("w2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stolen.Grants) != 1 || stolen.Grants[0].Shard.ID != first.Grants[0].Shard.ID {
		t.Fatalf("expired shard not re-issued: %+v", stolen.Grants)
	}
	if stolen.Grants[0].Lease == first.Grants[0].Lease {
		t.Fatal("re-issue reused the dead lease token")
	}
	// w1's late heartbeat learns the lease is gone.
	hb, err := client.Heartbeat(HeartbeatRequest{Worker: "w1", Leases: []string{first.Grants[0].Lease}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Lost) != 1 || hb.Lost[0] != first.Grants[0].Lease {
		t.Fatalf("heartbeat did not report the lost lease: %+v", hb)
	}
	// w2's heartbeat keeps its stolen lease alive.
	hb2, err := client.Heartbeat(HeartbeatRequest{Worker: "w2", Leases: []string{stolen.Grants[0].Lease}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb2.Lost) != 0 {
		t.Fatalf("live lease reported lost: %+v", hb2)
	}
}

// TestJournalResumesFromOffset: a follower that reconnects with from=N
// receives exactly the records it missed.
func TestJournalResumesFromOffset(t *testing.T) {
	_, _, client := startCoordinator(t, Options{})
	spec := sweepSpec()
	spec.Sample = 30
	id, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, client.Base, "w1", 1)
	if st := waitJob(t, client, id, 60*time.Second); st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	all := collectJournal(t, client, id)
	if len(all) != 30 {
		t.Fatalf("journal has %d records", len(all))
	}
	const from = 12
	var tail []telemetry.Record
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.FollowJournal(ctx, id, from, func(rec telemetry.Record) {
		tail = append(tail, rec)
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(all)-from {
		t.Fatalf("from=%d stream delivered %d records, want %d", from, len(tail), len(all)-from)
	}
	for i, rec := range tail {
		if rec.Index != all[from+i].Index {
			t.Fatalf("offset stream record %d is index %d, want %d", i, rec.Index, all[from+i].Index)
		}
	}
}

// TestMetricsExposeWorkersAndIslands spot-checks the Prometheus text:
// job states, per-worker telemetry from heartbeats, per-island record
// counters.
func TestMetricsExposeWorkersAndIslands(t *testing.T) {
	_, srv, client := startCoordinator(t, Options{})
	id, err := client.Submit(islandSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, client.Base, "mw", 2)
	if st := waitJob(t, client, id, 60*time.Second); st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	// A heartbeat delivers the worker's telemetry snapshot for /metrics.
	snap := telemetry.NewCollector(1).Snapshot()
	if _, err := client.Heartbeat(HeartbeatRequest{Worker: "mw", Telemetry: &snap}); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`dmserve_jobs{state="done"} 1`,
		`dmserve_shards{job="` + id + `",state="done"} 2`,
		`dmserve_island_records_total{job="` + id + `",island="1"}`,
		`dmserve_island_records_total{job="` + id + `",island="2"}`,
		`dmserve_worker_sims_total{worker="mw"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
