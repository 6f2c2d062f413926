package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dmexplore/internal/alloc"
	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/stats"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// logSampled is how many EasyportSpace configurations profile-log logs
// besides the three presets.
const logSampled = 13

// logTrace is profile-log's input trace as a v2 file, written once per
// run before any timing.
type logTrace struct {
	path string
	size int64
}

func (b *bench) logTrace() (*logTrace, error) {
	if b.logIn != nil {
		return b.logIn, nil
	}
	gen, err := workload.New("easyport", b.workloadSeed, b.traceScale(100))
	if err != nil {
		return nil, err
	}
	tr, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	lt := &logTrace{path: filepath.Join(b.outDir, "easyport.v2")}
	f, err := os.Create(lt.path)
	if err != nil {
		return nil, err
	}
	if err := trace.WriteBinaryV2(f, tr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(lt.path)
	if err != nil {
		return nil, err
	}
	lt.size = fi.Size()
	b.logIn = lt
	return lt, nil
}

// logConfigs is the configuration set one iteration logs: the three
// presets and a sample of EasyportSpace drawn by the search seed.
func logConfigs(seed uint64) ([]alloc.Config, [][]string, error) {
	var configs []alloc.Config
	var labels [][]string
	for _, p := range []struct {
		name string
		cfg  func(string) alloc.Config
	}{{"kingsley", alloc.KingsleyConfig}, {"lea", alloc.LeaConfig}, {"first-fit", alloc.SimpleFirstFitConfig}} {
		configs = append(configs, p.cfg(memhier.LayerDRAM))
		labels = append(labels, []string{p.name})
	}
	space := core.EasyportSpace()
	for _, idx := range stats.NewRNG(seed).Perm(space.Size())[:logSampled] {
		cfg, l, err := space.Config(idx)
		if err != nil {
			return nil, nil, err
		}
		configs = append(configs, cfg)
		labels = append(labels, append([]string{"easyport"}, l...))
	}
	return configs, labels, nil
}

// runProfileLog reads a v2 trace file, profiles a fixed configuration set
// with raw access logging, and parses every log back: the logging replay
// path and the block-framed log ingest the paper times.
func runProfileLog(b *bench, t *tracer) (*iter, error) {
	in, err := b.logTrace()
	if err != nil {
		return nil, err
	}
	configs, labels, err := logConfigs(b.searchSeed)
	if err != nil {
		return nil, err
	}
	it := newIter()
	it.root = t.begin("iteration profile-log", -1)
	setupStart := time.Now()
	var ct *trace.Compiled
	d, err := t.call("trace.read", it.root, func() error {
		var err error
		ct, err = trace.ReadCompiledFile(in.path, b.workers, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	it.layer["trace.read_mb_per_s"] = float64(in.size) / 1e6 / d.Seconds()
	h := memhier.EmbeddedSoC()
	it.setup = time.Since(setupStart)

	exploreStart := time.Now()
	var mem memDelta
	mem.start()
	jr, err := openJournal(b, t, it)
	if err != nil {
		return nil, err
	}
	n := len(configs)
	metrics := make([]*profile.Metrics, n)
	durs := make([]time.Duration, n)
	errs := make([]error, n)
	logPath := func(i int) string { return filepath.Join(b.outDir, fmt.Sprintf("run-%02d.log", i)) }
	// One Replayer per worker pulling configurations in order, each run
	// writing its own block-framed log.
	logRuns := t.begin("profile.log_runs", it.root)
	callStart := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := profile.NewReplayer()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				start := time.Now()
				metrics[i], errs[i] = logRun(rep, ct, configs[i], h, logPath(i))
				durs[i] = time.Since(start)
				t.add("profile.log_run", logRuns, start, durs[i])
			}
		}()
	}
	wg.Wait()
	it.call = time.Since(callStart)
	t.end(logRuns)
	var logBytes int64
	summaries := make([]*profile.LogSummary, n)
	parseDur, err := t.call("profile.log_parse", it.root, func() error {
		for i := range summaries {
			if errs[i] != nil {
				continue
			}
			size, err := parseLog(logPath(i), b.workers, &summaries[i])
			if err != nil {
				return err
			}
			logBytes += size
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results := make([]core.Result, n)
	for i := range results {
		results[i] = core.Result{Index: i, Labels: labels[i], Metrics: metrics[i], Err: errs[i], Duration: durs[i]}
		if errs[i] == nil && !summaryMatches(summaries[i], metrics[i]) {
			// The parsed log must account for exactly the per-layer reads
			// and writes the run reported.
			it.failed++
		}
		jr.observe(results[i])
	}
	if err := publish(b, t, it, "profile-log", []string{"config"}, results); err != nil {
		return nil, err
	}
	if err := jr.close(t, it); err != nil {
		return nil, err
	}
	it.explore = time.Since(exploreStart)
	it.alloc = mem.stop()
	t.end(it.root)

	it.evals = n
	it.failed += countErrors(results)
	it.print = fingerprint(results)
	it.layer["profile.log_write_mb_per_s"] = float64(logBytes) / 1e6 / it.call.Seconds()
	it.layer["profile.log_parse_mb_per_s"] = float64(logBytes) / 1e6 / parseDur.Seconds()
	it.verify = func() (int, int, error) {
		// Logging must not change what a run measures: re-profile the
		// presets on the fast path and compare.
		rep := profile.NewReplayer()
		bad := 0
		for i := 0; i < 3; i++ {
			want, err := rep.Run(ct, configs[i], h, profile.Options{})
			if err != nil {
				return 0, 0, err
			}
			if !sameMetrics(metrics[i], want) {
				bad++
			}
		}
		return 3, bad, nil
	}
	return it, nil
}

// logRun profiles one configuration with its raw access log at path.
func logRun(rep *profile.Replayer, ct *trace.Compiled, cfg alloc.Config, h *memhier.Hierarchy, path string) (*profile.Metrics, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	m, err := rep.Run(ct, cfg, h, profile.Options{LogWriter: f})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return m, err
}

// parseLog ingests one log with ParseLogParallel and returns its size.
func parseLog(path string, workers int, out **profile.LogSummary) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	*out, err = profile.ParseLogParallel(f, fi.Size(), workers, nil)
	return fi.Size(), err
}

// summaryMatches compares a parsed log's per-layer word counts with the
// run's metrics (log layer ids are hierarchy layer indices).
func summaryMatches(s *profile.LogSummary, m *profile.Metrics) bool {
	if s == nil || m == nil {
		return false
	}
	for i := range s.Reads {
		var reads, writes uint64
		if i < len(m.PerLayer) {
			reads, writes = m.PerLayer[i].Reads, m.PerLayer[i].Writes
		}
		if s.Reads[i] != reads || s.Writes[i] != writes {
			return false
		}
	}
	return true
}
