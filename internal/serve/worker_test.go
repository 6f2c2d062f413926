package serve

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// heldSessions counts the job sessions the worker keeps open.
func (w *Worker) heldSessions() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, we := range w.envs {
		if we.sess != nil {
			n++
		}
	}
	return n
}

// runningShards counts the shards the worker has not released yet.
func (w *Worker) runningShards() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, we := range w.envs {
		n += we.running
	}
	return n
}

// settle waits until cond holds, failing the test after a few seconds.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s did not settle", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerClosesIdleJobSessions: a worker that runs sweep jobs one
// after another closes each finished job's session when the next job's
// lease starts, so after three jobs it holds one session (the last,
// idle job's) and no more goroutines than it held after the first.
func TestWorkerClosesIdleJobSessions(t *testing.T) {
	_, _, client := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() {
		cancel()
		<-done
	})
	w := &Worker{Coordinator: client.Base, ID: "w1", Slots: 1, SessionWorkers: 2, Poll: 10 * time.Millisecond}
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()

	baseline := 0
	for job := 1; job <= 3; job++ {
		spec := sweepSpec()
		spec.SampleSeed = uint64(job)
		id, err := client.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, client, id, 60*time.Second); st.State != "done" {
			t.Fatalf("job %d ended %s: %s", job, st.State, st.Error)
		}
		settle(t, "shard release", func() bool { return w.runningShards() == 0 })
		if n := w.heldSessions(); n != 1 {
			t.Fatalf("after job %d the worker holds %d sessions, want 1", job, n)
		}
		if job == 1 {
			baseline = runtime.NumGoroutine()
			continue
		}
		settle(t, "goroutine count", func() bool { return runtime.NumGoroutine() <= baseline })
	}
}

// TestReopenedSessionJournalIdentical: a job whose session a worker
// closed (another job's lease started while none of its shards ran) and
// rebuilt for its next lease journals exactly what the same job does on
// a worker that keeps one session throughout (wall times aside).
func TestReopenedSessionJournalIdentical(t *testing.T) {
	spec := sweepSpec()
	spec.Sample, spec.ShardSize, spec.Incremental = 40, 20, true

	// Reference: the job alone on an ordinary worker.
	_, _, refClient := startCoordinator(t, Options{})
	refID, err := refClient.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, refClient.Base, "w1", 1)
	if st := waitJob(t, refClient, refID, 60*time.Second); st.State != "done" {
		t.Fatalf("reference job ended %s: %s", st.State, st.Error)
	}
	want := collectJournal(t, refClient, refID)

	// The same job with another job's shard run between its two shards.
	_, _, client := startCoordinator(t, Options{})
	id, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	other := sweepSpec()
	other.Sample, other.ShardSize = 20, 20
	if _, err := client.Submit(other); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Coordinator: client.Base, ID: "w1", SessionWorkers: 2}
	w.init()
	resp, err := client.Lease(w.ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Grants) != 3 || resp.Grants[0].JobID != id || resp.Grants[1].JobID != id || resp.Grants[2].JobID == id {
		t.Fatalf("unexpected grants %+v", resp.Grants)
	}
	run := func(g LeaseGrant) *workerEnv {
		we := w.acquire(g.JobID)
		w.runShard(context.Background(), g, we)
		w.release(we)
		return we
	}
	first := run(resp.Grants[0])
	run(resp.Grants[2])
	if w.heldSessions() != 1 {
		t.Fatalf("worker holds %d sessions after the other job's shard, want 1", w.heldSessions())
	}
	if second := run(resp.Grants[1]); second == first {
		t.Fatal("the job's session was not closed and reopened between its shards")
	}
	for _, we := range w.envs {
		we.close()
	}
	if st := waitJob(t, client, id, 60*time.Second); st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	got := collectJournal(t, client, id)
	if len(got) != len(want) {
		t.Fatalf("journal after reopening has %d records, want %d", len(got), len(want))
	}
	for i := range got {
		got[i].DurationMS, want[i].DurationMS = 0, 0 // wall time, not a result
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d after reopening differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
