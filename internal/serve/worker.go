package serve

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
)

// Worker is one evaluation process of the distributed service. It polls
// the coordinator for shard leases (the work-stealing pull), evaluates
// them on the unchanged single-process stack — one core.EvalSession per
// job, shared by every shard of that job the worker holds, so islands
// multiplex one bounded simulation pool and one memo — and streams each
// result back as it completes. A heartbeat goroutine renews the leases;
// a lease the coordinator reports lost cancels its shard.
type Worker struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// ID names the worker in leases, heartbeats and journal records
	// (default "w<pid>").
	ID string
	// Slots is the number of shards evaluated concurrently (default 1).
	// An island-model job with more islands than the fleet's summed
	// slots cannot complete its migration barriers — size fleets so
	// islands <= sum(slots).
	Slots int
	// SessionWorkers sizes each job's evaluation session pool (default
	// GOMAXPROCS). Determinism does not depend on it.
	SessionWorkers int
	// Poll is the idle lease-poll interval (default 200ms).
	Poll time.Duration

	client *Client
	col    *telemetry.Collector

	mu     sync.Mutex
	cancel map[string]context.CancelFunc // lease token → shard cancel
	envs   map[string]*workerEnv         // job ID → shared environment
	ttl    time.Duration
}

type workerEnv struct {
	once sync.Once
	err  error
	env  *Env
	sess *core.EvalSession
}

// Run pulls and evaluates shards until ctx is cancelled. It returns
// ctx's error after in-flight shards have been cancelled and drained.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		w.ID = fmt.Sprintf("w%d", os.Getpid())
	}
	if w.Slots <= 0 {
		w.Slots = 1
	}
	if w.Poll <= 0 {
		w.Poll = 200 * time.Millisecond
	}
	w.client = &Client{Base: w.Coordinator}
	w.col = telemetry.NewCollector(max(w.SessionWorkers, 1))
	w.cancel = make(map[string]context.CancelFunc)
	w.envs = make(map[string]*workerEnv)
	w.ttl = DefaultLeaseTTL

	var active atomic.Int64
	var wg sync.WaitGroup

	heartbeatCtx, stopHeartbeat := context.WithCancel(context.Background())
	defer stopHeartbeat()
	go w.heartbeatLoop(heartbeatCtx)

	for ctx.Err() == nil {
		free := w.Slots - int(active.Load())
		granted := 0
		if free > 0 {
			resp, err := w.client.Lease(w.ID, free)
			if err == nil {
				for _, g := range resp.Grants {
					granted++
					active.Add(1)
					wg.Add(1)
					shardCtx, cancel := context.WithCancel(ctx)
					w.mu.Lock()
					w.cancel[g.Lease] = cancel
					if g.TTLMS > 0 {
						w.ttl = time.Duration(g.TTLMS) * time.Millisecond
					}
					w.mu.Unlock()
					go func(g LeaseGrant) {
						defer func() {
							w.mu.Lock()
							delete(w.cancel, g.Lease)
							w.mu.Unlock()
							cancel()
							active.Add(-1)
							wg.Done()
						}()
						w.runShard(shardCtx, g)
					}(g)
				}
			}
		}
		if granted == 0 {
			select {
			case <-ctx.Done():
			case <-time.After(w.Poll):
			}
		}
	}
	// Cancel in-flight shards and drain.
	w.mu.Lock()
	for _, cancel := range w.cancel {
		cancel()
	}
	w.mu.Unlock()
	wg.Wait()
	stopHeartbeat()
	w.mu.Lock()
	for _, we := range w.envs {
		if we.sess != nil {
			we.sess.Close()
		}
	}
	w.mu.Unlock()
	return ctx.Err()
}

// heartbeatLoop renews the worker's leases at a third of the lease TTL
// and abandons shards the coordinator reports lost.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		interval := w.ttl / 3
		w.mu.Unlock()
		if interval <= 0 {
			interval = time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
		w.mu.Lock()
		leases := make([]string, 0, len(w.cancel))
		for token := range w.cancel {
			leases = append(leases, token)
		}
		w.mu.Unlock()
		snap := w.col.Snapshot()
		resp, err := w.client.Heartbeat(HeartbeatRequest{
			Worker: w.ID, Leases: leases, Telemetry: &snap,
		})
		if err != nil {
			continue // coordinator unreachable: keep working, retry next beat
		}
		for _, lost := range resp.Lost {
			w.mu.Lock()
			cancel := w.cancel[lost]
			w.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		}
	}
}

// envFor returns the job's shared evaluation environment, building it on
// first use. Every shard of one job on this worker shares one session —
// one compiled trace, one worker pool, one memo — which is also what
// lets N islands run on a worker with fewer session workers than
// islands: a migration-blocked island occupies no session worker.
func (w *Worker) envFor(jobID string, spec JobSpec) (*workerEnv, error) {
	w.mu.Lock()
	we := w.envs[jobID]
	if we == nil {
		we = &workerEnv{}
		w.envs[jobID] = we
	}
	w.mu.Unlock()
	we.once.Do(func() {
		we.env, we.err = BuildEnv(spec, w.SessionWorkers, w.col)
		if we.err != nil {
			return
		}
		we.sess, we.err = we.env.Runner.NewSession(we.env.Space)
	})
	return we, we.err
}

// runShard evaluates one leased shard and streams its results. Errors
// in the evaluation itself fail the job (Failed line); transport errors
// and cancellations abandon the shard silently — its lease expires and
// the coordinator re-issues it.
func (w *Worker) runShard(ctx context.Context, g LeaseGrant) {
	we, err := w.envFor(g.JobID, g.Spec)
	if err != nil {
		stream := w.client.StreamResults(g.Lease)
		stream.Send(ResultLine{Failed: err.Error()})
		stream.Close()
		return
	}
	stream := w.client.StreamResults(g.Lease)
	defer stream.Close()

	warmSession(we.sess, g.Warm)

	var evalErr error
	switch g.Shard.Kind {
	case "range":
		evalErr = w.runRange(ctx, we, g, stream)
	case "island":
		evalErr = w.runIsland(ctx, we, g, stream)
	default:
		evalErr = fmt.Errorf("unknown shard kind %q", g.Shard.Kind)
	}
	switch {
	case ctx.Err() != nil:
		// Cancelled (shutdown or lost lease): abandon without a verdict.
	case evalErr != nil:
		stream.Send(ResultLine{Failed: evalErr.Error()})
	default:
		stream.Send(ResultLine{Done: true})
	}
}

// stamp converts a result to its wire line, branding it with the shard,
// island and worker identity.
func (w *Worker) stamp(res core.Result, sh ShardState) ResultLine {
	rec := res.JournalRecord()
	rec.Shard = sh.ID
	if sh.Kind == "island" {
		rec.Island = sh.Island + 1
	}
	rec.Worker = w.ID
	return ResultLine{Record: &rec, Metrics: res.Metrics}
}

// runRange evaluates a sweep shard's indices in bounded waves, streaming
// each wave's results in request order.
func (w *Worker) runRange(ctx context.Context, we *workerEnv, g LeaseGrant, stream *ResultStream) error {
	const wave = 64
	indices := g.Indices
	origins := core.SweepOrigins(min(wave, len(indices)))
	for lo := 0; lo < len(indices); lo += wave {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		hi := lo + wave
		if hi > len(indices) {
			hi = len(indices)
		}
		batch := indices[lo:hi]
		results, err := we.sess.Eval(batch, nil, origins[:len(batch)])
		if err != nil {
			return err
		}
		for _, res := range results {
			if err := stream.Send(w.stamp(res, g.Shard)); err != nil {
				return ctx.Err() // stream dropped: treat as abandonment
			}
		}
	}
	return nil
}

// runIsland runs one island of an island-model NSGA-II search over the
// job's shared session. Results stream in batcher request order (the
// deterministic order at any session worker count); migration points
// call back to the coordinator's barrier. A 1-island job sets no hook,
// which makes its walk bit-identical to the serial search.
func (w *Worker) runIsland(ctx context.Context, we *workerEnv, g LeaseGrant, stream *ResultStream) error {
	spec := g.Spec
	var streamErr atomic.Value
	opts := core.IslandOptions{
		EvolveOptions: core.EvolveOptions{
			Population: spec.Population,
			Budget:     spec.Budget,
			Seed:       spec.Seed,
		},
		Island:         g.Shard.Island,
		MigrationEvery: spec.MigrationEvery,
		MigrationK:     spec.MigrationK,
		OnResult: func(res core.Result) {
			if err := stream.Send(w.stamp(res, g.Shard)); err != nil {
				streamErr.Store(err)
			}
		},
	}
	if spec.Islands > 1 {
		opts.Migrate = func(gen int, front []core.IslandMember) ([]int, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err, _ := streamErr.Load().(error); err != nil {
				return nil, err
			}
			return w.client.Migrate(MigrateRequest{
				JobID: g.JobID, Lease: g.Lease,
				Island: g.Shard.Island, Gen: gen, Front: front,
			})
		}
	}
	_, err := we.env.Runner.EvolveIslandSession(we.sess, we.env.Space, spec.Objectives, opts)
	if err == nil {
		if serr, _ := streamErr.Load().(error); serr != nil {
			return ctx.Err() // stream dropped mid-walk: abandon
		}
	}
	return err
}

// warmSession pre-loads the session memo from a grant's checkpointed
// results so a resumed island's deterministic walk fast-forwards through
// already-evaluated configurations (see core.EvalSession.Warm).
func warmSession(sess *core.EvalSession, warm []WarmResult) {
	if len(warm) == 0 {
		return
	}
	m := make(map[int]*profile.Metrics, len(warm))
	for _, wr := range warm {
		m[wr.Index] = wr.Metrics
	}
	sess.Warm(m)
}
