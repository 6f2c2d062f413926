package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProgressThrottles(t *testing.T) {
	var buf bytes.Buffer
	// A huge interval: only the final update may print.
	p := NewProgress(&buf, nil, time.Hour)
	for i := 1; i <= 100; i++ {
		p.Update(i, 100)
	}
	out := buf.String()
	if n := strings.Count(out, "\r"); n != 1 {
		t.Fatalf("printed %d times, want 1 (final only):\n%q", n, out)
	}
	if !strings.Contains(out, "profiled 100/100 (100%)") {
		t.Fatalf("final line missing: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("final line not terminated: %q", out)
	}
	if strings.Contains(out, "ETA") {
		t.Fatalf("final line carries an ETA: %q", out)
	}
}

func TestProgressShowsRateEtaAndHitRate(t *testing.T) {
	col := NewCollector(1)
	col.Shard(0).CacheHit()
	col.Shard(0).CacheHit()
	col.Shard(0).CacheMiss()
	var buf bytes.Buffer
	p := NewProgress(&buf, col, time.Nanosecond)
	p.start = p.start.Add(-time.Second) // pretend a second elapsed
	p.Update(50, 100)
	out := buf.String()
	for _, want := range []string{"profiled 50/100 (50%)", "cfg/s", "ETA", "cache 67%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestProgressConcurrentUpdates(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, nil, time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.Update(w*500+i+1, 4000)
			}
		}(w)
	}
	wg.Wait()
	p.Update(4000, 4000)
	if !strings.Contains(buf.String(), "4000/4000") {
		t.Fatalf("final update missing:\n%q", buf.String())
	}
}

// TestProgressSuppressesBogusETA is the regression test for the
// early-run ETA: one configuration done after an hour projects a
// centuries-long (or overflowed) estimate, which must render as
// unknown, not as a number.
func TestProgressSuppressesBogusETA(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, nil, time.Nanosecond)
	p.start = p.start.Add(-time.Hour)
	p.Update(1, 1000000)
	out := buf.String()
	if !strings.Contains(out, "ETA --:--") {
		t.Fatalf("bogus ETA not suppressed: %q", out)
	}
}

func TestEtaFor(t *testing.T) {
	cases := []struct {
		remaining int
		rate      float64
		want      time.Duration
	}{
		{0, 10, 0},
		{-5, 10, 0},
		{100, 10, 10 * time.Second},
		{999999, 1.0 / 3600, -1}, // ~115 years: suppressed
		{1, 1e-300, -1},          // would overflow time.Duration
		{3600, 1, time.Hour},     // exactly renderable
	}
	for _, c := range cases {
		if got := etaFor(c.remaining, c.rate); got != c.want {
			t.Errorf("etaFor(%d, %g) = %v, want %v", c.remaining, c.rate, got, c.want)
		}
	}
}

func TestFormatETA(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{-time.Second, "--:--"},          // the etaFor "unknown" sentinel
		{400 * time.Millisecond, "0:01"}, // rounds up, never 0:00 mid-run
		{59 * time.Second, "0:59"},
		{90 * time.Second, "1:30"},
		{3600 * time.Second, "1:00:00"},
		{3725 * time.Second, "1:02:05"},
	}
	for _, c := range cases {
		if got := formatETA(c.d); got != c.want {
			t.Errorf("formatETA(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
