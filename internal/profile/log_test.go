package profile

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
)

// syntheticLog returns a synthetic log and its serial summary.
func syntheticLog(t *testing.T, records int) ([]byte, *LogSummary) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSyntheticLog(&buf, records, 99); err != nil {
		t.Fatal(err)
	}
	s, err := ParseLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != uint64(records) {
		t.Fatalf("synthetic log parsed %d records, wrote %d", s.Records, records)
	}
	return buf.Bytes(), s
}

func TestParseLogParallelMatchesSerial(t *testing.T) {
	defer func(w int64) { logFetchWindowBytes = w }(logFetchWindowBytes)
	logFetchWindowBytes = 64 << 10 // several fetch windows on a small log

	data, want := syntheticLog(t, 400_000) // a few MB, many blocks
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := ParseLogParallel(bytes.NewReader(data), int64(len(data)), workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !SameSummary(got, want) {
			t.Fatalf("workers=%d: parallel summary diverged: %d records vs %d", workers, got.Records, want.Records)
		}
	}
}

// TestParseLogRejectsV1 pins the removal of the legacy bare record
// stream: without the block-framed header, both parsers refuse the log
// instead of guessing at its layout.
func TestParseLogRejectsV1(t *testing.T) {
	bare := []byte{1 << 1, 0x80, 0x01, 4, 1<<1 | 1, 0x10, 2} // two records, no header
	if _, err := ParseLog(bytes.NewReader(bare)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("serial parser: %v, want a bad-magic error", err)
	}
	for _, workers := range []int{1, 4} {
		if _, err := ParseLogParallel(bytes.NewReader(bare), int64(len(bare)), workers, nil); err == nil {
			t.Fatalf("workers=%d: bare record stream accepted", workers)
		}
	}
}

// blockCounter is a concurrency-safe blockio.Stats tally.
type blockCounter struct {
	mu                     sync.Mutex
	blocks, records, bytes int
}

func (c *blockCounter) ObserveBlock(payloadBytes, records int) {
	c.mu.Lock()
	c.blocks++
	c.records += records
	c.bytes += payloadBytes
	c.mu.Unlock()
}

func (c *blockCounter) CRCFailure() {}

// TestParseLogSerialFeedsStats requires the serial ingest path to report
// its blocks exactly like the parallel one.
func TestParseLogSerialFeedsStats(t *testing.T) {
	data, _ := syntheticLog(t, 100_000)
	var serial, parallel blockCounter
	if _, err := ParseLogParallel(bytes.NewReader(data), int64(len(data)), 1, &serial); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseLogParallel(bytes.NewReader(data), int64(len(data)), 4, &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.records != 100_000 || serial.blocks != parallel.blocks ||
		serial.records != parallel.records || serial.bytes != parallel.bytes {
		t.Fatalf("serial ingest saw %d blocks/%d records/%d bytes, parallel %d/%d/%d",
			serial.blocks, serial.records, serial.bytes, parallel.blocks, parallel.records, parallel.bytes)
	}
}

func TestParseLogV2DetectsCorruption(t *testing.T) {
	data, _ := syntheticLog(t, 100_000)
	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)/3] ^= 0x10
	if _, err := ParseLog(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("serial parse accepted corruption")
	}
	if _, err := ParseLogParallel(bytes.NewReader(corrupt), int64(len(corrupt)), 4, nil); err == nil {
		t.Fatal("parallel parse accepted corruption")
	}
}

func TestParseLogRejectsUnknownVersion(t *testing.T) {
	bad := append([]byte(logMagic), 9, 0, 0, 0)
	if _, err := ParseLog(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown log version accepted")
	}
	if _, err := ParseLogParallel(bytes.NewReader(bad), int64(len(bad)), 4, nil); err == nil {
		t.Fatal("unknown log version accepted by parallel parser")
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct {
	n   int
	err error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestRunSurfacesLogWriteErrorEarly(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	fw := &failingWriter{n: 4096, err: io.ErrShortWrite}
	if _, err := Run(tr, alloc.LeaConfig(memhier.LayerDRAM), h, Options{LogWriter: fw}); err == nil {
		t.Fatal("dead log writer not surfaced")
	}
}

func TestRunLogRoundTripsThroughParallelParse(t *testing.T) {
	tr := smallEasyport(t)
	h := memhier.EmbeddedSoC()
	var buf bytes.Buffer
	m, err := Run(tr, alloc.KingsleyConfig(memhier.LayerDRAM), h, Options{LogWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseLogParallel(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalWords() != m.Accesses {
		t.Fatalf("parallel log words %d != metrics accesses %d", got.TotalWords(), m.Accesses)
	}
}
