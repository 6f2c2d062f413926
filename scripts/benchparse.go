//go:build ignore

// benchparse measures the block-framed (v2) ingestion path: it generates
// a synthetic raw profile log, parses it serially and with
// profile.ParseLogParallel at several worker counts, and records raw
// throughput plus the speedup under a latency-modelled storage backend
// in BENCH_parse.json at the repository root. A second section does the
// same for trace.ReadBinaryParallel and verifies the parallel read is
// bit-identical to the sequential one, through Compile.
//
// Two regimes are reported:
//
//   - raw: the file is served from the page cache. On a multi-core host
//     this shows the CPU-bound parallel decode win; on a single-core CI
//     box the worker pool shares one core and the numbers honestly show
//     ~1x (GOMAXPROCS is recorded next to them).
//
//   - latency-modelled: every storage request costs a fixed latency,
//     modelling the regime the format is built for (network filesystems,
//     SD/eMMC, debug links on embedded targets — the paper's gigabyte
//     logs rarely live on a local NVMe). The serial parser streams
//     through a ~1 MiB buffer and pays every request in sequence; the
//     parallel reader coalesces blocks into 4 MiB fetch windows and
//     overlaps them across workers — the two levers the footer index
//     exists to enable. This regime works at any GOMAXPROCS, like the
//     batched-evaluation model in benchsearch.go.
//
// Usage, from the repository root:
//
//	go run scripts/benchparse.go [-mb 1024] [-latency 10ms]
//
// Exits non-zero if the latency-modelled 8-worker speedup falls below
// 2x, if any parallel summary diverges from the serial one, or if the
// parallel trace read is not bit-identical.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"dmexplore/internal/profile"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

const minSpeedup = 2.0

type logRun struct {
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_seconds"`
	GBPerSec     float64 `json:"gb_per_sec"`
	SpeedupVsSer float64 `json:"speedup_vs_serial,omitempty"`
	Modelled     bool    `json:"latency_modelled"`
}

type output struct {
	GeneratedBy string  `json:"generated_by"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	LatencyMS   float64 `json:"request_latency_ms"`

	LogBytes   int64    `json:"log_bytes"`
	LogRecords int      `json:"log_records"`
	LogRuns    []logRun `json:"log_runs"`
	Speedup8x  float64  `json:"speedup_8_workers_latency_modelled"`

	TraceEvents        int     `json:"trace_events"`
	TraceBytes         int     `json:"trace_bytes"`
	TraceSerialGBs     float64 `json:"trace_serial_gb_per_sec"`
	TraceParallelGBs   float64 `json:"trace_parallel_gb_per_sec"`
	TraceBitIdentical  bool    `json:"trace_parallel_bit_identical"`
	SummariesIdentical bool    `json:"log_summaries_identical"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchparse:", err)
		os.Exit(1)
	}
}

// latencyFile serves ReadAt from an os.File with a fixed per-request
// cost: the seek/RPC overhead of slow storage. Goroutines overlap the
// stalls, so the model exercises the parallel reader's request
// coalescing and overlap at any GOMAXPROCS.
type latencyFile struct {
	f   *os.File
	lat time.Duration
}

func (l *latencyFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(l.lat)
	return l.f.ReadAt(p, off)
}

// latencyReader is the serial view of the same storage: sequential reads,
// each request paying the same fixed cost.
type latencyReader struct {
	lf  *latencyFile
	off int64
}

func (r *latencyReader) Read(p []byte) (int, error) {
	n, err := r.lf.ReadAt(p, r.off)
	r.off += int64(n)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

func run() error {
	mb := flag.Int("mb", 1024, "synthetic log size in MiB")
	latency := flag.Duration("latency", 10*time.Millisecond, "modelled per-request storage latency")
	flag.Parse()

	out := output{
		GeneratedBy: "go run scripts/benchparse.go",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		LatencyMS:   float64(*latency) / float64(time.Millisecond),
	}

	path, records, err := generateLog(int64(*mb) << 20)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	out.LogBytes, out.LogRecords = fi.Size(), records
	fmt.Fprintf(os.Stderr, "log: %d records, %.2f GiB\n", records, float64(fi.Size())/(1<<30))

	// Raw page-cache parses: serial baseline, then the parallel reader.
	serialSummary, serialWall, err := timeSerial(f)
	if err != nil {
		return err
	}
	out.LogRuns = append(out.LogRuns, report("raw", logRun{
		Workers: 1, WallSeconds: serialWall,
		GBPerSec: gbs(fi.Size(), serialWall),
	}, serialWall))
	out.SummariesIdentical = true
	for _, workers := range []int{2, 8} {
		start := time.Now()
		s, err := profile.ParseLogParallel(f, fi.Size(), workers, nil)
		if err != nil {
			return fmt.Errorf("raw workers=%d: %w", workers, err)
		}
		wall := time.Since(start).Seconds()
		if !profile.SameSummary(s, serialSummary) {
			return fmt.Errorf("raw workers=%d: summary diverged from serial", workers)
		}
		out.LogRuns = append(out.LogRuns, report("raw", logRun{
			Workers: workers, WallSeconds: wall,
			GBPerSec: gbs(fi.Size(), wall), SpeedupVsSer: serialWall / wall,
		}, serialWall))
	}

	// Latency-modelled parses: the gated regime.
	lf := &latencyFile{f: f, lat: *latency}
	start := time.Now()
	s, err := profile.ParseLog(&latencyReader{lf: lf})
	if err != nil {
		return err
	}
	modelSerialWall := time.Since(start).Seconds()
	if !profile.SameSummary(s, serialSummary) {
		return fmt.Errorf("latency-modelled serial: summary diverged")
	}
	out.LogRuns = append(out.LogRuns, report("modelled", logRun{
		Workers: 1, WallSeconds: modelSerialWall,
		GBPerSec: gbs(fi.Size(), modelSerialWall), Modelled: true,
	}, modelSerialWall))
	for _, workers := range []int{2, 4, 8} {
		start := time.Now()
		s, err := profile.ParseLogParallel(lf, fi.Size(), workers, nil)
		if err != nil {
			return fmt.Errorf("modelled workers=%d: %w", workers, err)
		}
		wall := time.Since(start).Seconds()
		if !profile.SameSummary(s, serialSummary) {
			return fmt.Errorf("modelled workers=%d: summary diverged from serial", workers)
		}
		rr := report("modelled", logRun{
			Workers: workers, WallSeconds: wall,
			GBPerSec: gbs(fi.Size(), wall), SpeedupVsSer: modelSerialWall / wall,
			Modelled: true,
		}, modelSerialWall)
		out.LogRuns = append(out.LogRuns, rr)
		if workers == 8 {
			out.Speedup8x = rr.SpeedupVsSer
		}
	}

	if err := benchTrace(&out); err != nil {
		return err
	}

	bf, err := os.Create("BENCH_parse.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(bf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		bf.Close()
		return err
	}
	if err := bf.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote BENCH_parse.json")
	if out.Speedup8x < minSpeedup {
		return fmt.Errorf("latency-modelled 8-worker speedup %.2fx below the %.1fx bar", out.Speedup8x, minSpeedup)
	}
	return nil
}

// generateLog writes a block-framed synthetic log of roughly wantBytes
// to a temp file, returning its path and record count.
func generateLog(wantBytes int64) (string, int, error) {
	// The xorshift stream averages just under 6 bytes per record (flags
	// byte, ~4-byte address varint, 1-byte word count).
	records := int(wantBytes / 6)
	path := filepath.Join(os.TempDir(), "benchparse.dmpl")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	if err := profile.WriteSyntheticLog(f, records, 42); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	return path, records, nil
}

func timeSerial(f *os.File) (*profile.LogSummary, float64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	s, err := profile.ParseLog(f)
	if err != nil {
		return nil, 0, err
	}
	return s, time.Since(start).Seconds(), nil
}

func benchTrace(out *output) error {
	p := workload.DefaultEasyportParams()
	p.Packets = 20000
	tr, err := p.Generate()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := trace.WriteBinaryV2(&buf, tr); err != nil {
		return err
	}
	data := buf.Bytes()
	out.TraceEvents, out.TraceBytes = tr.Len(), len(data)

	start := time.Now()
	seq, err := trace.ReadBinary(bytes.NewReader(data))
	if err != nil {
		return err
	}
	serialWall := time.Since(start).Seconds()
	start = time.Now()
	par, err := trace.ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), 8, nil)
	if err != nil {
		return err
	}
	parWall := time.Since(start).Seconds()
	out.TraceSerialGBs = gbs(int64(len(data)), serialWall)
	out.TraceParallelGBs = gbs(int64(len(data)), parWall)

	cseq, err := trace.Compile(seq)
	if err != nil {
		return err
	}
	cpar, err := trace.Compile(par)
	if err != nil {
		return err
	}
	out.TraceBitIdentical = reflect.DeepEqual(seq, par) && reflect.DeepEqual(cseq, cpar)
	fmt.Fprintf(os.Stderr, "trace: %d events, serial %.2f GB/s, parallel(8) %.2f GB/s, bit-identical=%v\n",
		out.TraceEvents, out.TraceSerialGBs, out.TraceParallelGBs, out.TraceBitIdentical)
	if !out.TraceBitIdentical {
		return fmt.Errorf("parallel trace read is not bit-identical to the sequential one")
	}
	return nil
}

func report(regime string, r logRun, serialWall float64) logRun {
	speedup := 1.0
	if r.WallSeconds > 0 {
		speedup = serialWall / r.WallSeconds
	}
	fmt.Fprintf(os.Stderr, "%-8s workers=%d  %6.2fs  %6.2f GB/s  speedup=%.2fx\n",
		regime, r.Workers, r.WallSeconds, r.GBPerSec, speedup)
	return r
}

func gbs(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds / 1e9
}
