package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/pareto"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/workload"
)

// Options configure a Coordinator.
type Options struct {
	// StateDir, when non-empty, checkpoints every job as a JSONL journal
	// (job-<id>.jsonl) flushed per line; a Coordinator opened over the
	// same directory resumes every job from its checkpoint. Empty
	// disables persistence.
	StateDir string

	// LeaseTTL is how long a lease survives without a heartbeat before
	// its shard is re-issued (default DefaultLeaseTTL).
	LeaseTTL time.Duration

	// Now overrides the clock (tests advance it to expire leases
	// deterministically). Nil uses time.Now.
	Now func() time.Time
}

// Coordinator is the distributed exploration service's brain: it owns
// the job set, the shard queues, the lease table and the migration
// barriers. All state lives behind one mutex — the coordinator does no
// evaluation itself, every handler is bookkeeping in microseconds — and
// every mutation that must survive a restart appends one line to the
// job's checkpoint journal before it is acknowledged.
type Coordinator struct {
	opts Options

	mu        sync.Mutex
	jobs      map[string]*job
	jobOrder  []string
	leases    map[string]*lease
	workers   map[string]*workerState
	nextJob   int
	nextLease int
}

type lease struct {
	token   string
	worker  string
	jobID   string
	shardID int
	expires time.Time
}

type workerState struct {
	lastSeen time.Time
	snap     *telemetry.Snapshot
}

type seenKey struct {
	shard, index int
}

// migRound is one migration barrier: fronts posted so far, and a channel
// closed when the round resolves (immigrants computed, or the job died).
type migRound struct {
	fronts map[int][]core.IslandMember
	ready  chan struct{}
}

type job struct {
	id      string
	spec    JobSpec
	space   *core.Space
	shards  []ShardState
	queue   []int          // pending shard IDs, lease order
	done    map[int]bool   // shard ID → completed
	leased  map[int]string // shard ID → live lease token
	state   string         // running|done|failed
	failure string

	results map[int]*profile.Metrics // configuration index → exact metrics (first write wins)
	labels  map[int][]string
	records []telemetry.Record // the job's journal, arrival order
	seen    map[seenKey]bool   // (shard, index) dedup for re-issued shards

	rounds map[int]*migRound // generation → open barrier
	migOut map[int][]int     // generation → resolved immigrants (memo + checkpoint)

	cond *sync.Cond // broadcast on record append / state change (journal followers)

	ckpt     *json.Encoder // nil when persistence is off
	ckptFile *os.File
}

// ckptLine is one checkpoint journal line. The "t" tag picks the
// variant: spec, result, shard_done, migration, done, failed.
type ckptLine struct {
	T       string            `json:"t"`
	Spec    *JobSpec          `json:"spec,omitempty"`
	Shard   int               `json:"shard,omitempty"`
	Record  *telemetry.Record `json:"record,omitempty"`
	Metrics *profile.Metrics  `json:"metrics,omitempty"`
	Gen     int               `json:"gen,omitempty"`
	Imm     []int             `json:"imm,omitempty"`
	Err     string            `json:"err,omitempty"`
}

// NewCoordinator builds a coordinator, resuming every job checkpointed
// under opts.StateDir: completed jobs stay queryable, unfinished shards
// of running jobs return to the lease queue, and resolved migration
// generations replay from the checkpoint so resumed islands see exactly
// the immigrants the original run saw.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	c := &Coordinator{
		opts:    opts,
		jobs:    make(map[string]*job),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerState),
	}
	if opts.StateDir == "" {
		return c, nil
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, err
	}
	names, err := filepath.Glob(filepath.Join(opts.StateDir, "job-*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		if err := c.loadJob(name); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Close releases the checkpoint files. In-flight handlers must have
// drained (close the HTTP server first).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	for _, j := range c.jobs {
		if j.ckptFile != nil {
			if cerr := j.ckptFile.Close(); err == nil {
				err = cerr
			}
			j.ckptFile = nil
			j.ckpt = nil
		}
	}
	return err
}

// loadJob replays one checkpoint journal into a live job.
func (c *Coordinator) loadJob(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base := filepath.Base(path)
	id := strings.TrimSuffix(strings.TrimPrefix(base, "job-"), ".jsonl")
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n >= c.nextJob {
		c.nextJob = n
	}
	var j *job
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var l ckptLine
		if err := json.Unmarshal([]byte(text), &l); err != nil {
			return fmt.Errorf("serve: checkpoint %s line %d: %w", path, line, err)
		}
		switch l.T {
		case "spec":
			if l.Spec == nil {
				return fmt.Errorf("serve: checkpoint %s line %d: spec line without spec", path, line)
			}
			spec, err := prepareSpec(*l.Spec)
			if err != nil {
				return fmt.Errorf("serve: checkpoint %s line %d: %w", path, line, err)
			}
			j, err = c.newJob(id, spec)
			if err != nil {
				return err
			}
		case "result":
			if j == nil || l.Record == nil {
				continue
			}
			c.applyResult(j, l.Shard, *l.Record, l.Metrics)
		case "shard_done":
			if j == nil {
				continue
			}
			j.done[l.Shard] = true
		case "migration":
			if j == nil {
				continue
			}
			j.migOut[l.Gen] = append([]int(nil), l.Imm...)
		case "done":
			if j == nil {
				continue
			}
			j.state = "done"
		case "failed":
			if j == nil {
				continue
			}
			j.state = "failed"
			j.failure = l.Err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if j == nil {
		return nil
	}
	// Rebuild the pending queue: every shard neither done nor (by
	// definition after restart) leased.
	j.queue = j.queue[:0]
	for _, sh := range j.shards {
		if !j.done[sh.ID] {
			j.queue = append(j.queue, sh.ID)
		}
	}
	if j.state == "running" && len(j.queue) == 0 {
		j.state = "done"
	}
	if j.state == "running" || j.state == "" {
		j.state = "running"
		ck, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		j.ckptFile = ck
		j.ckpt = json.NewEncoder(ck)
	}
	c.jobs[id] = j
	c.jobOrder = append(c.jobOrder, id)
	return nil
}

// newJob builds the in-memory job (no checkpoint writes). Caller holds
// no particular lock during load; Submit holds c.mu.
func (c *Coordinator) newJob(id string, spec JobSpec) (*job, error) {
	space, err := core.WorkloadSpace(spec.Workload, spec.Space)
	if err != nil {
		return nil, err
	}
	j := &job{
		id:      id,
		spec:    spec,
		space:   space,
		shards:  planShards(spec, space),
		done:    make(map[int]bool),
		leased:  make(map[int]string),
		state:   "running",
		results: make(map[int]*profile.Metrics),
		labels:  make(map[int][]string),
		seen:    make(map[seenKey]bool),
		rounds:  make(map[int]*migRound),
		migOut:  make(map[int][]int),
	}
	j.cond = sync.NewCond(&c.mu)
	for _, sh := range j.shards {
		j.queue = append(j.queue, sh.ID)
	}
	return j, nil
}

// applyResult folds one journal record (+ metrics) into the job's state:
// dedup by (shard, index), first-wins results map, append to the
// journal. Used both by the live results stream and checkpoint replay,
// so a record outside the job's space is dropped here too: warmResults
// would ship it with every later island lease.
func (c *Coordinator) applyResult(j *job, shardID int, rec telemetry.Record, m *profile.Metrics) bool {
	if !j.inSpace(rec.Index) {
		return false
	}
	key := seenKey{shard: shardID, index: rec.Index}
	if j.seen[key] {
		return false
	}
	j.seen[key] = true
	j.records = append(j.records, rec)
	if m != nil {
		if _, ok := j.results[rec.Index]; !ok {
			j.results[rec.Index] = m
			j.labels[rec.Index] = rec.Labels
		}
	}
	return true
}

// checkpoint appends one line to the job's journal. Persistence off or
// write errors are silent by design: the in-memory run proceeds, only
// restart durability degrades.
func (c *Coordinator) checkpoint(j *job, l ckptLine) {
	if j.ckpt == nil {
		return
	}
	_ = j.ckpt.Encode(l)
}

// prepareSpec fills spec's defaults and checks it as a job the
// coordinator can shard and its workers can build. Submitted specs and
// the specs of checkpointed jobs both pass through it.
func prepareSpec(spec JobSpec) (JobSpec, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	if _, err := workload.New(spec.Workload, spec.WorkloadSeed, spec.Scale); err != nil {
		return spec, err
	}
	if _, err := memhier.Preset(spec.Hierarchy); err != nil {
		return spec, err
	}
	return spec, nil
}

// Submit registers a job and returns its ID.
func (c *Coordinator) Submit(spec JobSpec) (string, error) {
	spec, err := prepareSpec(spec)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextJob++
	id := fmt.Sprintf("j%d", c.nextJob)
	j, err := c.newJob(id, spec)
	if err != nil {
		return "", err
	}
	if c.opts.StateDir != "" {
		path := filepath.Join(c.opts.StateDir, "job-"+id+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			return "", err
		}
		j.ckptFile = f
		j.ckpt = json.NewEncoder(f)
	}
	c.jobs[id] = j
	c.jobOrder = append(c.jobOrder, id)
	c.checkpoint(j, ckptLine{T: "spec", Spec: &spec})
	return id, nil
}

// sweepLeases requeues the shards of every expired lease — the lazy half
// of work-stealing: the next worker to ask for work inherits them.
// Caller holds c.mu.
func (c *Coordinator) sweepLeases() {
	now := c.opts.Now()
	for token, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(c.leases, token)
		j := c.jobs[l.jobID]
		if j == nil {
			continue
		}
		if j.leased[l.shardID] == token {
			delete(j.leased, l.shardID)
			if !j.done[l.shardID] && j.state == "running" {
				j.queue = append(j.queue, l.shardID)
			}
		}
	}
}

// grantLeases hands out up to slots shards across the running jobs, in
// submission order. Caller holds c.mu.
func (c *Coordinator) grantLeases(worker string, slots int) []LeaseGrant {
	var grants []LeaseGrant
	now := c.opts.Now()
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j.state != "running" {
			continue
		}
		for slots > len(grants) && len(j.queue) > 0 {
			shardID := j.queue[0]
			j.queue = j.queue[1:]
			if j.done[shardID] {
				continue
			}
			sh := j.shards[shardID-1]
			c.nextLease++
			token := fmt.Sprintf("L%d", c.nextLease)
			c.leases[token] = &lease{
				token: token, worker: worker, jobID: j.id,
				shardID: shardID, expires: now.Add(c.opts.LeaseTTL),
			}
			j.leased[shardID] = token
			g := LeaseGrant{
				Lease: token, JobID: j.id, Spec: j.spec, Shard: sh,
				TTLMS: c.opts.LeaseTTL.Milliseconds(),
			}
			switch sh.Kind {
			case "range":
				g.Indices = append([]int(nil), sweepIndices(j.spec, j.space.Size())[sh.Lo:sh.Hi]...)
			case "island":
				// Ship the job's checkpointed results so a resumed island
				// fast-forwards its deterministic walk through the session
				// memo — bit-identical, no re-simulation, no modelled
				// backend latency.
				g.Warm = warmResults(j)
			}
			grants = append(grants, g)
		}
	}
	return grants
}

func warmResults(j *job) []WarmResult {
	if len(j.results) == 0 {
		return nil
	}
	indices := make([]int, 0, len(j.results))
	for idx := range j.results {
		indices = append(indices, idx)
	}
	sort.Ints(indices)
	warm := make([]WarmResult, 0, len(indices))
	for _, idx := range indices {
		warm = append(warm, WarmResult{Index: idx, Metrics: j.results[idx]})
	}
	return warm
}

// shardDone marks a shard complete, retires its lease, resolves any
// migration rounds the retirement completes, and finishes the job when
// it was the last shard. Caller holds c.mu.
func (c *Coordinator) shardDone(j *job, shardID int, token string) {
	if j.done[shardID] {
		return
	}
	j.done[shardID] = true
	delete(j.leased, shardID)
	delete(c.leases, token)
	c.checkpoint(j, ckptLine{T: "shard_done", Shard: shardID})
	// An island's retirement can complete open migration barriers.
	for gen, round := range j.rounds {
		c.checkRound(j, gen, round)
	}
	allDone := true
	for _, sh := range j.shards {
		if !j.done[sh.ID] {
			allDone = false
			break
		}
	}
	if allDone && j.state == "running" {
		j.state = "done"
		c.checkpoint(j, ckptLine{T: "done"})
		if j.ckptFile != nil {
			j.ckptFile.Close()
			j.ckptFile = nil
			j.ckpt = nil
		}
	}
	j.cond.Broadcast()
}

// jobFailed moves the job to the failed state and releases every waiter
// (journal followers, migration barriers). Caller holds c.mu.
func (c *Coordinator) jobFailed(j *job, msg string) {
	if j.state != "running" {
		return
	}
	j.state = "failed"
	j.failure = msg
	c.checkpoint(j, ckptLine{T: "failed", Err: msg})
	if j.ckptFile != nil {
		j.ckptFile.Close()
		j.ckptFile = nil
		j.ckpt = nil
	}
	for gen, round := range j.rounds {
		close(round.ready)
		delete(j.rounds, gen)
	}
	j.cond.Broadcast()
}

// islandRetired reports whether the island can no longer post fronts:
// its shard is done. Caller holds c.mu.
func (j *job) islandRetired(island int) bool {
	for _, sh := range j.shards {
		if sh.Kind == "island" && sh.Island == island {
			return j.done[sh.ID]
		}
	}
	return true
}

// checkFront validates a migrate post from the lease on shardID: the
// island must be that lease's, and every member an index of the space
// with one value per objective. Caller holds c.mu.
func (j *job) checkFront(shardID int, req MigrateRequest) error {
	// Island shards number their islands 0..Islands-1, so this also
	// refuses an island outside the job.
	if sh := j.shards[shardID-1]; sh.Kind != "island" || sh.Island != req.Island {
		return fmt.Errorf("island %d is not the lease's shard", req.Island)
	}
	for _, m := range req.Front {
		if !j.inSpace(m.Index) {
			return fmt.Errorf("front member %d outside the space's %d configurations", m.Index, j.space.Size())
		}
		if len(m.Values) != len(j.spec.Objectives) {
			return fmt.Errorf("front member %d has %d values for %d objectives", m.Index, len(m.Values), len(j.spec.Objectives))
		}
	}
	return nil
}

// inSpace reports whether idx names one of the job's configurations.
func (j *job) inSpace(idx int) bool { return idx >= 0 && idx < j.space.Size() }

// checkRound resolves a migration barrier when every live island has
// posted (or retired): merge the posted fronts into the global Pareto
// front, cap at MigrationK, memoize and checkpoint. Deterministic given
// the fronts — posting order cannot matter because the merge reads the
// fronts keyed by island. Caller holds c.mu.
func (c *Coordinator) checkRound(j *job, gen int, round *migRound) {
	if _, resolved := j.migOut[gen]; resolved {
		return
	}
	for i := 0; i < j.spec.Islands; i++ {
		if _, posted := round.fronts[i]; posted {
			continue
		}
		if !j.islandRetired(i) {
			return // barrier still waiting on island i
		}
	}
	islands := make([]int, 0, len(round.fronts))
	for i := range round.fronts {
		islands = append(islands, i)
	}
	sort.Ints(islands)
	fronts := make([][]pareto.Point, 0, len(islands))
	for _, i := range islands {
		pts := make([]pareto.Point, 0, len(round.fronts[i]))
		for _, m := range round.fronts[i] {
			pts = append(pts, pareto.Point{Tag: strconv.Itoa(m.Index), Values: m.Values})
		}
		fronts = append(fronts, pts)
	}
	merged := pareto.MergeFronts(fronts...)
	imm := make([]int, 0, j.spec.MigrationK)
	for _, p := range merged {
		if len(imm) >= j.spec.MigrationK {
			break
		}
		idx, err := strconv.Atoi(p.Tag)
		if err != nil {
			continue
		}
		imm = append(imm, idx)
	}
	j.migOut[gen] = imm
	c.checkpoint(j, ckptLine{T: "migration", Gen: gen, Imm: imm})
	delete(j.rounds, gen)
	close(round.ready)
}

// status builds the job's status (front included when includeFront).
// Caller holds c.mu.
func (c *Coordinator) status(j *job, includeFront bool) JobStatus {
	st := JobStatus{
		ID: j.id, Spec: j.spec, State: j.state,
		Shards: len(j.shards), Results: len(j.results), Records: len(j.records),
		Error: j.failure,
	}
	for _, sh := range j.shards {
		if j.done[sh.ID] {
			st.ShardsDone++
		}
	}
	if !includeFront {
		return st
	}
	rs := make([]core.Result, 0, len(j.results))
	for idx, m := range j.results {
		rs = append(rs, core.Result{Index: idx, Labels: j.labels[idx], Metrics: m})
	}
	front, points, err := core.ParetoSet(core.Feasible(rs), j.spec.Objectives)
	if err != nil {
		return st
	}
	for n, r := range front {
		st.Front = append(st.Front, FrontPoint{Index: r.Index, Labels: r.Labels, Values: points[n].Values})
	}
	return st
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", c.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/journal", c.handleJournal)
	mux.HandleFunc("POST /api/v1/lease", c.handleLease)
	mux.HandleFunc("POST /api/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/results", c.handleResults)
	mux.HandleFunc("POST /api/v1/migrate", c.handleMigrate)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, err := c.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, SubmitResponse{ID: id})
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]JobStatus, 0, len(c.jobOrder))
	for _, id := range c.jobOrder {
		out = append(out, c.status(c.jobs[id], false))
	}
	c.mu.Unlock()
	writeJSON(w, out)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j := c.jobs[r.PathValue("id")]
	if j == nil {
		c.mu.Unlock()
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	st := c.status(j, true)
	c.mu.Unlock()
	writeJSON(w, st)
}

// handleJournal streams the job's journal as JSONL from record `from`
// onward. With follow=1 the stream stays open, pushing records as they
// arrive, until the job reaches a terminal state — the resumable
// streaming contract: a client that disconnects at record N reconnects
// with from=N and misses nothing.
func (c *Coordinator) handleJournal(w http.ResponseWriter, r *http.Request) {
	from, _ := strconv.Atoi(r.URL.Query().Get("from"))
	if from < 0 {
		from = 0
	}
	follow := r.URL.Query().Get("follow") == "1"
	c.mu.Lock()
	j := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		c.mu.Lock()
		for follow && from >= len(j.records) && j.state == "running" && r.Context().Err() == nil {
			j.cond.Wait()
		}
		batch := append([]telemetry.Record(nil), j.records[min(from, len(j.records)):]...)
		terminal := j.state != "running"
		c.mu.Unlock()
		for _, rec := range batch {
			if err := enc.Encode(rec); err != nil {
				return
			}
			from++
		}
		if flusher != nil {
			flusher.Flush()
		}
		if !follow || terminal || r.Context().Err() != nil {
			return
		}
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Slots <= 0 {
		req.Slots = 1
	}
	c.mu.Lock()
	c.sweepLeases()
	c.touchWorker(req.Worker, nil)
	grants := c.grantLeases(req.Worker, req.Slots)
	c.mu.Unlock()
	writeJSON(w, LeaseResponse{Grants: grants})
}

func (c *Coordinator) touchWorker(name string, snap *telemetry.Snapshot) {
	if name == "" {
		return
	}
	ws := c.workers[name]
	if ws == nil {
		ws = &workerState{}
		c.workers[name] = ws
	}
	ws.lastSeen = c.opts.Now()
	if snap != nil {
		ws.snap = snap
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.sweepLeases()
	c.touchWorker(req.Worker, req.Telemetry)
	now := c.opts.Now()
	var resp HeartbeatResponse
	for _, token := range req.Leases {
		if l, ok := c.leases[token]; ok && l.worker == req.Worker {
			l.expires = now.Add(c.opts.LeaseTTL)
		} else {
			resp.Lost = append(resp.Lost, token)
		}
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

// handleResults consumes a worker's chunked JSONL result stream for one
// lease. Each line lands in the job's journal (deduplicated against
// re-issued shards) and checkpoint before the next is read, so a
// coordinator killed mid-stream loses at most the line in flight.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	token := r.URL.Query().Get("lease")
	c.mu.Lock()
	c.sweepLeases()
	l := c.leases[token]
	if l == nil {
		c.mu.Unlock()
		http.Error(w, "unknown lease", http.StatusConflict)
		return
	}
	j := c.jobs[l.jobID]
	shardID := l.shardID
	c.mu.Unlock()

	dec := json.NewDecoder(r.Body)
	for {
		var line ResultLine
		if err := dec.Decode(&line); err != nil {
			// EOF (normal or abandoned stream) or a malformed line: stop
			// reading. An abandoned shard's lease expires and re-issues.
			break
		}
		c.mu.Lock()
		if cur := c.leases[token]; cur == nil {
			// Lease expired mid-stream (missed heartbeats): drop the rest;
			// the shard's re-issue will deliver these results again.
			c.mu.Unlock()
			http.Error(w, "lease expired", http.StatusConflict)
			return
		}
		switch {
		case line.Record != nil && !j.inSpace(line.Record.Index):
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("record %d outside the space's %d configurations", line.Record.Index, j.space.Size()), http.StatusBadRequest)
			return
		case line.Record != nil:
			if c.applyResult(j, shardID, *line.Record, line.Metrics) {
				c.checkpoint(j, ckptLine{T: "result", Shard: shardID, Record: line.Record, Metrics: line.Metrics})
				j.cond.Broadcast()
			}
		case line.Done:
			c.shardDone(j, shardID, token)
		case line.Failed != "":
			c.jobFailed(j, fmt.Sprintf("shard %d: %s", shardID, line.Failed))
			delete(c.leases, token)
			delete(j.leased, shardID)
		}
		c.mu.Unlock()
	}
	writeJSON(w, struct{}{})
}

// handleMigrate implements the migration barrier. The posting island
// blocks until the round resolves; a generation already resolved (memo
// or checkpoint) returns immediately, which is what lets a re-leased
// island replay its past migrations deterministically.
func (c *Coordinator) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.sweepLeases()
	j := c.jobs[req.JobID]
	if j == nil {
		c.mu.Unlock()
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	if imm, ok := j.migOut[req.Gen]; ok {
		c.mu.Unlock()
		writeJSON(w, MigrateResponse{Immigrants: imm})
		return
	}
	if j.state != "running" {
		c.mu.Unlock()
		http.Error(w, "job is "+j.state, http.StatusConflict)
		return
	}
	l := c.leases[req.Lease]
	if l == nil || l.jobID != req.JobID {
		c.mu.Unlock()
		http.Error(w, "unknown lease", http.StatusConflict)
		return
	}
	// The merge panics on mixed dimensionality and trusts every index, so
	// a malformed front is refused before it can join a round.
	if err := j.checkFront(l.shardID, req); err != nil {
		c.mu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	round := j.rounds[req.Gen]
	if round == nil {
		round = &migRound{fronts: make(map[int][]core.IslandMember), ready: make(chan struct{})}
		j.rounds[req.Gen] = round
	}
	if _, posted := round.fronts[req.Island]; !posted {
		round.fronts[req.Island] = req.Front
	}
	c.checkRound(j, req.Gen, round)
	ready := round.ready
	c.mu.Unlock()

	select {
	case <-ready:
	case <-r.Context().Done():
		return
	}
	c.mu.Lock()
	imm, ok := j.migOut[req.Gen]
	failed := j.state == "failed"
	c.mu.Unlock()
	if !ok || failed {
		http.Error(w, "job failed", http.StatusConflict)
		return
	}
	writeJSON(w, MigrateResponse{Immigrants: imm})
}

// handleMetrics exposes coordinator state and per-worker / per-island
// telemetry in Prometheus text format under dmserve_* names.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	states := map[string]int{"running": 0, "done": 0, "failed": 0}
	var shardSamples, resultSamples, islandSamples []telemetry.PromSample
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		states[j.state]++
		doneShards := 0
		for _, sh := range j.shards {
			if j.done[sh.ID] {
				doneShards++
			}
		}
		jobLabel := telemetry.PromLabel("job", j.id)
		shardSamples = append(shardSamples,
			telemetry.PromSample{Labels: jobLabel + "," + telemetry.PromLabel("state", "done"), Value: float64(doneShards)},
			telemetry.PromSample{Labels: jobLabel + "," + telemetry.PromLabel("state", "pending"), Value: float64(len(j.queue))},
			telemetry.PromSample{Labels: jobLabel + "," + telemetry.PromLabel("state", "leased"), Value: float64(len(j.leased))},
		)
		resultSamples = append(resultSamples, telemetry.PromSample{Labels: jobLabel, Value: float64(len(j.results))})
		if j.spec.Strategy == "nsga2" {
			perIsland := make(map[int]int)
			for _, rec := range j.records {
				if rec.Island > 0 {
					perIsland[rec.Island]++
				}
			}
			islands := make([]int, 0, len(perIsland))
			for i := range perIsland {
				islands = append(islands, i)
			}
			sort.Ints(islands)
			for _, i := range islands {
				islandSamples = append(islandSamples, telemetry.PromSample{
					Labels: jobLabel + "," + telemetry.PromLabel("island", strconv.Itoa(i)),
					Value:  float64(perIsland[i]),
				})
			}
		}
	}
	var jobSamples []telemetry.PromSample
	for _, state := range []string{"running", "done", "failed"} {
		jobSamples = append(jobSamples, telemetry.PromSample{
			Labels: telemetry.PromLabel("state", state), Value: float64(states[state]),
		})
	}
	workerNames := make([]string, 0, len(c.workers))
	for name := range c.workers {
		workerNames = append(workerNames, name)
	}
	sort.Strings(workerNames)
	var wSims, wComposed, wMemo, wCache []telemetry.PromSample
	for _, name := range workerNames {
		ws := c.workers[name]
		if ws.snap == nil {
			continue
		}
		label := telemetry.PromLabel("worker", name)
		wSims = append(wSims, telemetry.PromSample{Labels: label, Value: float64(ws.snap.Sims)})
		wComposed = append(wComposed, telemetry.PromSample{Labels: label, Value: float64(ws.snap.ComposedEvals)})
		wMemo = append(wMemo, telemetry.PromSample{Labels: label, Value: float64(ws.snap.MemoHits)})
		wCache = append(wCache, telemetry.PromSample{Labels: label, Value: float64(ws.snap.CacheHits)})
	}
	leases := len(c.leases)
	c.mu.Unlock()

	var b strings.Builder
	telemetry.WritePromSeries(&b, "dmserve_jobs", "gauge", "Jobs by state.", jobSamples)
	telemetry.WritePromSeries(&b, "dmserve_leases", "gauge", "Live leases.", []telemetry.PromSample{{Value: float64(leases)}})
	telemetry.WritePromSeries(&b, "dmserve_shards", "gauge", "Shards by job and state.", shardSamples)
	telemetry.WritePromSeries(&b, "dmserve_results_total", "counter", "Distinct configurations evaluated per job.", resultSamples)
	if islandSamples != nil {
		telemetry.WritePromSeries(&b, "dmserve_island_records_total", "counter", "Journal records per island.", islandSamples)
	}
	telemetry.WritePromSeries(&b, "dmserve_worker_sims_total", "counter", "Simulations per worker (last heartbeat).", wSims)
	telemetry.WritePromSeries(&b, "dmserve_worker_composed_evals_total", "counter", "Composed evaluations per worker (last heartbeat).", wComposed)
	telemetry.WritePromSeries(&b, "dmserve_worker_memo_hits_total", "counter", "Memo hits per worker (last heartbeat).", wMemo)
	telemetry.WritePromSeries(&b, "dmserve_worker_cache_hits_total", "counter", "Cache hits per worker (last heartbeat).", wCache)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(b.String()))
}
