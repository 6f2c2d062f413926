package profile

import (
	"bytes"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// BenchmarkRun measures one-shot simulation throughput: trace events
// replayed per second through a full configuration, including the
// per-call trace compilation profile.Run performs.
func BenchmarkRun(b *testing.B) {
	p := workload.DefaultEasyportParams()
	p.Packets = 3000
	tr, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	for _, cfg := range []alloc.Config{
		alloc.KingsleyConfig(memhier.LayerDRAM),
		alloc.LeaConfig(memhier.LayerDRAM),
		alloc.SimpleFirstFitConfig(memhier.LayerDRAM),
	} {
		b.Run(cfg.Label, func(b *testing.B) {
			b.SetBytes(int64(tr.Len())) // "bytes" = events replayed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(tr, cfg, h, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchReplay measures steady-state exploration throughput: the trace is
// compiled once and a single Replayer is reused across configurations,
// exactly as core.Runner workers replay. Its events/sec is the kernel
// figure perfbench tracks end to end as profile.full_sim_events_per_s.
func benchReplay(b *testing.B, gen workload.Generator) {
	b.Helper()
	tr, err := gen.Generate()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	for _, cfg := range []alloc.Config{
		alloc.KingsleyConfig(memhier.LayerDRAM),
		alloc.LeaConfig(memhier.LayerDRAM),
		alloc.SimpleFirstFitConfig(memhier.LayerDRAM),
	} {
		b.Run(cfg.Label, func(b *testing.B) {
			rep := NewReplayer()
			if _, err := rep.Run(ct, cfg, h, Options{}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(ct.Len())) // "bytes" = events replayed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rep.Run(ct, cfg, h, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			eventsPerSec := float64(ct.Len()) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(eventsPerSec, "events/sec")
		})
	}
}

// BenchmarkReplayEasyport tracks compiled-replay throughput on the
// Easyport workload (short-lived packet descriptors, high churn).
func BenchmarkReplayEasyport(b *testing.B) {
	p := workload.DefaultEasyportParams()
	p.Packets = 3000
	benchReplay(b, p)
}

// BenchmarkReplayVTC tracks compiled-replay throughput on the VTC
// workload (long-residency tile buffers).
func BenchmarkReplayVTC(b *testing.B) {
	p := workload.DefaultVTCParams()
	benchReplay(b, p)
}

// BenchmarkReplayTelemetry is the instrumented twin of
// BenchmarkReplayEasyport: the same steady-state replay loop with a
// telemetry shard attached, as core.Runner workers run it. Comparing
// its events/sec against the plain benchmark bounds the observation
// overhead (make bench-telemetry; the budget is <2%). ReportAllocs
// doubles as the zero-allocation guard.
func BenchmarkReplayTelemetry(b *testing.B) {
	p := workload.DefaultEasyportParams()
	p.Packets = 3000
	tr, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	col := telemetry.NewCollector(1)
	for _, cfg := range []alloc.Config{
		alloc.KingsleyConfig(memhier.LayerDRAM),
		alloc.LeaConfig(memhier.LayerDRAM),
		alloc.SimpleFirstFitConfig(memhier.LayerDRAM),
	} {
		b.Run(cfg.Label, func(b *testing.B) {
			rep := NewReplayer()
			rep.Shard = col.Shard(0)
			if _, err := rep.Run(ct, cfg, h, Options{}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(ct.Len())) // "bytes" = events replayed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rep.Run(ct, cfg, h, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			eventsPerSec := float64(ct.Len()) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(eventsPerSec, "events/sec")
		})
	}
}

// loggedTrace is the Easyport trace the log benchmarks replay, compiled.
func loggedTrace(b *testing.B) *trace.Compiled {
	b.Helper()
	p := workload.DefaultEasyportParams()
	p.Packets = 3000
	tr, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	return ct
}

// BenchmarkRunLogged measures logged replay: a reused Replayer profiles
// each preset with its raw access log going to a reused in-memory sink.
// The MB/s column is log bytes written per second, the
// profile.log_write_mb_per_s layer of the profile-log workload.
func BenchmarkRunLogged(b *testing.B) {
	ct := loggedTrace(b)
	h := memhier.EmbeddedSoC()
	for _, cfg := range presetConfigs() {
		b.Run(cfg.Label, func(b *testing.B) {
			rep := NewReplayer()
			var sink bytes.Buffer
			opts := Options{LogWriter: &sink}
			if _, err := rep.Run(ct, cfg, h, opts); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(sink.Len())) // "bytes" = log bytes written
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Reset()
				if _, err := rep.Run(ct, cfg, h, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParseLog measures log ingest over the presets' real access
// logs: serial (ParseLog) and parallel (ParseLogParallel, 4 workers, the
// default fetch window). The MB/s column is log bytes parsed per second,
// the profile.log_parse_mb_per_s layer of the profile-log workload.
func BenchmarkParseLog(b *testing.B) {
	ct := loggedTrace(b)
	h := memhier.EmbeddedSoC()
	for _, cfg := range presetConfigs() {
		var log bytes.Buffer
		if _, err := NewReplayer().Run(ct, cfg, h, Options{LogWriter: &log}); err != nil {
			b.Fatal(err)
		}
		data := log.Bytes()
		b.Run("serial/"+cfg.Label, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseLog(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("parallel/"+cfg.Label, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseLogParallel(bytes.NewReader(data), int64(len(data)), 4, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
