package trace_test

// Ingest benchmarks: the set-up an exploration pays before its first
// replay. BenchmarkCompile compiles a generated VTC trace;
// BenchmarkReadCompiledFile reads a block-framed Easyport v2 file
// straight into its compiled form with two workers, as profile-log does.

import (
	"os"
	"path/filepath"
	"testing"

	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// compiled keeps each benchmark's result live, so the compiler cannot
// drop the measured call.
var compiled *trace.Compiled

// generated returns the named workload's default-length trace.
func generated(b *testing.B, name string) *trace.Trace {
	b.Helper()
	gen, err := workload.New(name, 1, 100)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := gen.Generate()
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// reportEvents adds the events/s metric for n events an iteration.
func reportEvents(b *testing.B, n int) {
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkCompile(b *testing.B) {
	tr := generated(b, "vtc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if compiled, err = trace.Compile(tr); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, tr.Len())
}

func BenchmarkReadCompiledFile(b *testing.B) {
	tr := generated(b, "easyport")
	path := filepath.Join(b.TempDir(), "easyport.v2")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := trace.WriteBinaryV2(f, tr); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compiled, err = trace.ReadCompiledFile(path, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, tr.Len())
}
