package profile

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/trace"
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

// TestParseLogParallelSplitsSmallLog: a preset's access log smaller than
// one fetch window still splits into at least two fetch groups at two
// workers, and ParseLogParallel's summary of it equals ParseLog's.
func TestParseLogParallelSplitsSmallLog(t *testing.T) {
	ct := easyportCompiled(t, 2000)
	var buf bytes.Buffer
	if _, err := NewReplayer().Run(ct, alloc.LeaConfig(memhier.LayerDRAM), memhier.EmbeddedSoC(), Options{LogWriter: &buf}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	size := int64(len(data))
	if size >= logFetchWindowBytes {
		t.Fatalf("the %d-byte log fills a %d-byte fetch window", size, logFetchWindowBytes)
	}
	idx, err := openLog(bytes.NewReader(data), size, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Groups) < 2 {
		t.Fatalf("the %d-byte log forms %d fetch groups at two workers, want at least 2", size, len(idx.Groups))
	}
	want, err := ParseLog(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseLogParallel(bytes.NewReader(data), size, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !SameSummary(got, want) {
		t.Fatalf("parallel summary of %d records, serial %d: they differ", got.Records, want.Records)
	}
}

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

// TestLogBytesPinned pins the log format byte for byte: the digests were
// recorded from the writer that copied each record through a scratch
// buffer and a bufio.Writer, before records were encoded in place. Each
// preset's log over the short Easyport trace spans one or two blocks.
func TestLogBytesPinned(t *testing.T) {
	h := memhier.EmbeddedSoC()
	want := map[string]struct {
		size   int
		digest string
	}{
		"kingsley": {84128, "8662f80fdaa04a46055058fe0ceaccc99a10f65bd44646e5d514e6d3f3207d41"},
		"lea":      {364935, "e2d799c2e906386890b9c09e7152fd8f696dcb647eba111fe39dab5ac88ee3d7"},
		"firstfit": {302034, "1eb553bf22a380173a7784c98774ba1070dd62d1e8f4ef6503c927e2ba451f3b"},
	}
	ct, err := trace.Compile(smallEasyport(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer() // one Replayer: later logs go through a reset writer
	for _, cfg := range presetConfigs() {
		var buf bytes.Buffer
		if _, err := rep.Run(ct, cfg, h, Options{LogWriter: &buf}); err != nil {
			t.Fatal(err)
		}
		w, ok := want[cfg.Label]
		if !ok {
			t.Fatalf("no pinned digest for %s", cfg.Label)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != w.size || got != w.digest {
			t.Errorf("%s: log is %d bytes sha256 %s, want %d bytes %s", cfg.Label, buf.Len(), got, w.size, w.digest)
		}
	}
}

// deepHierarchy returns a hierarchy of n unbounded layers named L0...
func deepHierarchy(t *testing.T, n int) *memhier.Hierarchy {
	t.Helper()
	layers := make([]memhier.Layer, n)
	for i := range layers {
		layers[i] = memhier.Layer{Name: fmt.Sprintf("L%d", i), ReadEnergy: 1, WriteEnergy: 1, ReadCycles: 1, WriteCycles: 1}
	}
	h, err := memhier.New(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestRunRejectsUnloggableHierarchy pins the log format's layer limit:
// the flags byte holds a seven-bit layer id, so a 129-layer hierarchy
// cannot be logged and Run must say so instead of writing wrong ids,
// while 128 layers log correctly up to the last id.
func TestRunRejectsUnloggableHierarchy(t *testing.T) {
	tr := smallEasyport(t)
	var buf bytes.Buffer
	_, err := Run(tr, alloc.LeaConfig("L128"), deepHierarchy(t, 129), Options{LogWriter: &buf})
	if err == nil || !strings.Contains(err.Error(), "at most 128 layers") {
		t.Fatalf("129-layer log: %v, want an error naming the 128-layer limit", err)
	}
	if _, err := Run(tr, alloc.LeaConfig("L128"), deepHierarchy(t, 129), Options{}); err != nil {
		t.Fatalf("129 layers without a log: %v", err)
	}
	buf.Reset()
	m, err := Run(tr, alloc.LeaConfig("L127"), deepHierarchy(t, 128), Options{LogWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if last := m.PerLayer[127]; last.Reads == 0 || s.Reads[127] != last.Reads || s.Writes[127] != last.Writes {
		t.Fatalf("layer 127: log %d/%d, metrics %d/%d", s.Reads[127], s.Writes[127], last.Reads, last.Writes)
	}
}

// TestParseLogParallelFailsFast is the regression test for the parallel
// reader hang: with one block per fetch group and the CRC broken on the
// first two blocks, both workers fail while groups remain to dispatch,
// and the parse must return the error instead of blocking.
func TestParseLogParallelFailsFast(t *testing.T) {
	defer func(w int64) { logFetchWindowBytes = w }(logFetchWindowBytes)
	logFetchWindowBytes = 1 // one block per fetch group

	data, _ := syntheticLog(t, 200_000)
	idx, err := openLog(bytes.NewReader(data), int64(len(data)), 2)
	if err != nil {
		t.Fatal(err)
	}
	blocks := idx.Blocks
	if len(blocks) < 4 {
		t.Fatalf("only %d blocks", len(blocks))
	}
	corrupt := bytes.Clone(data)
	for _, blk := range blocks[:2] {
		corrupt[blk.Offset+blk.DataLen()-1] ^= 0xFF // last payload byte
	}
	done := make(chan error, 1)
	go func() {
		_, err := ParseLogParallel(bytes.NewReader(corrupt), int64(len(corrupt)), 2, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "crc") {
			t.Fatalf("corrupt log: %v, want a crc error", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("ParseLogParallel hung after every worker failed")
	}
}
