package blockio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingStats is a test Stats sink.
type countingStats struct {
	blocks, bytes, records, crcFails atomic.Int64
}

func (s *countingStats) ObserveBlock(payloadBytes, records int) {
	s.blocks.Add(1)
	s.bytes.Add(int64(payloadBytes))
	s.records.Add(int64(records))
}
func (s *countingStats) CRCFailure() { s.crcFails.Add(1) }

// writeRecords frames n small records (uvarint i) with the given block
// target and returns the file bytes and the record payload total.
func writeRecords(t *testing.T, n, target int, header []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, target)
	w.WriteHeader(header)
	for i := 0; i < n; i++ {
		w.Commit(binary.AppendUvarint(w.Begin(), uint64(i)))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundtripSequential(t *testing.T) {
	header := []byte("HDRX")
	data := writeRecords(t, 10000, 64, header)
	if !bytes.Equal(data[:4], header) {
		t.Fatalf("header not first: %q", data[:8])
	}
	r := NewReader(bytes.NewReader(data[4:]))
	var got []uint64
	for {
		records, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			v, n := binary.Uvarint(payload)
			if n <= 0 {
				t.Fatalf("bad record at %d", len(got))
			}
			payload = payload[n:]
			got = append(got, v)
		}
		if len(payload) != 0 {
			t.Fatalf("%d leftover payload bytes", len(payload))
		}
	}
	if len(got) != 10000 {
		t.Fatalf("got %d records", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("record %d = %d", i, v)
		}
	}
}

func TestIndexMatchesSequential(t *testing.T) {
	header := []byte("HH")
	data := writeRecords(t, 5000, 128, header)
	blocks, _, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 2 {
		t.Fatalf("only %d blocks", len(blocks))
	}
	var total int64
	prevEnd := int64(len(header))
	for i, blk := range blocks {
		if blk.Offset != prevEnd {
			t.Fatalf("block %d offset %d, want %d (blocks must be contiguous)", i, blk.Offset, prevEnd)
		}
		// Parse the block straight out of the file bytes.
		records, payload, _, err := parseBlock(data[blk.Offset:], nil)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if records != blk.Records || int64(len(payload)) != blk.PayloadLen {
			t.Fatalf("block %d: parsed %d/%d, index %d/%d", i, records, len(payload), blk.Records, blk.PayloadLen)
		}
		total += records
		prevEnd = blk.Offset + blk.DataLen()
	}
	if total != 5000 {
		t.Fatalf("index records %d", total)
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	data := writeRecords(t, 1000, 256, nil)
	// Flip a byte in the middle of the first block's payload.
	corrupt := bytes.Clone(data)
	corrupt[20] ^= 0xFF
	r := NewReader(bytes.NewReader(corrupt))
	if _, _, err := r.Next(); err == nil {
		t.Fatal("corrupted block accepted")
	}
	stats := &countingStats{}
	if _, _, _, err := parseBlock(corrupt, stats); err == nil {
		t.Fatal("parseBlock accepted corruption")
	}
	if stats.crcFails.Load() != 1 {
		t.Fatalf("crc failures %d", stats.crcFails.Load())
	}
}

// TestParseBlockRejectsHugeLength: a block header whose payload length
// is 2^63 or more is refused as exceeding the window, not read as a
// negative length that slips past the check and panics.
func TestParseBlockRejectsHugeLength(t *testing.T) {
	hdr := binary.AppendUvarint(nil, 1)           // one record
	hdr = binary.AppendUvarint(hdr, 1<<63|0x1234) // payload length
	for _, tail := range [][]byte{nil, {0}, {0, 0, 0, 0, 0, 0, 0, 0}} {
		if _, _, _, err := parseBlock(append(hdr, tail...), nil); err == nil || !strings.Contains(err.Error(), "exceeds window") {
			t.Errorf("%d trailing bytes: err %v, want a payload length that exceeds the window", len(tail), err)
		}
	}
}

func TestTruncationErrors(t *testing.T) {
	data := writeRecords(t, 1000, 256, nil)
	for _, cut := range []int{1, 7, len(data) / 2} {
		r := NewReader(bytes.NewReader(data[:cut]))
		for {
			_, _, err := r.Next()
			if err == io.EOF {
				t.Fatalf("cut at %d read cleanly", cut)
			}
			if err != nil {
				break
			}
		}
	}
	if _, _, err := readIndex(bytes.NewReader(data[:len(data)-3]), int64(len(data)-3)); err == nil {
		t.Fatal("truncated footer accepted")
	}
	if _, _, err := readIndex(bytes.NewReader(data[:4]), 4); err == nil {
		t.Fatal("4-byte file accepted")
	}
}

func TestEmptyFile(t *testing.T) {
	data := writeRecords(t, 0, 256, nil)
	r := NewReader(bytes.NewReader(data))
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty file: %v", err)
	}
	blocks, _, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || len(blocks) != 0 {
		t.Fatalf("empty index: %v %v", blocks, err)
	}
}

// failAfter fails every write once n bytes have been accepted.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterSurfacesDeferredError(t *testing.T) {
	fw := &failAfter{n: 512, err: io.ErrShortWrite}
	w := NewWriter(fw, 64) // small blocks so the sink fails early
	sawErr := false
	for i := 0; i < 1_000_000; i++ {
		w.Commit(binary.AppendUvarint(w.Begin(), uint64(i)))
		if w.Err() != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("writer never surfaced the deferred error")
	}
	if err := w.Close(); err == nil {
		t.Fatal("close swallowed the error")
	}
}

// TestWriterBytesPinned pins the on-disk framing: these digests were
// recorded from the writer that copied records through a scratch buffer
// and a bufio.Writer. Encoding in place with one Write per block must
// not change one byte, at any block target.
func TestWriterBytesPinned(t *testing.T) {
	for _, c := range []struct {
		records, target int
		size            int
		digest          string
	}{
		{10000, 64, 22694, "b34d711442d105011f2bff55cc386f278c9fec67a13425e4ba7ad59e669991d8"},
		{10000, 1000, 20173, "30eff7988afcfc374a8ea278a430745756c329d94aa577688e02f9e07c8cb383"},
		{10000, 0, 19909, "aa2e1186d2475221717bad7f9d5a228ee13f9d6150648ce5afb81cb97fbcdfb9"},
		{0, 0, 22, "cb0e2b224f262aed183ee8ae15eef5de1cad8289534857b48851f5b520e16fe7"},
	} {
		data := writeRecords(t, c.records, c.target, []byte("HDRX"))
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != c.size || got != c.digest {
			t.Errorf("%d records, target %d: %d bytes sha256 %s, want %d bytes %s", c.records, c.target, len(data), got, c.size, c.digest)
		}
	}
}

var testHeader = []byte("HDRX")

// writeLog writes n records through w, reset onto dst, and closes it.
func writeLog(w *Writer, dst io.Writer, n int) error {
	w.Reset(dst)
	w.WriteHeader(testHeader)
	for i := 0; i < n; i++ {
		w.Commit(binary.AppendUvarint(w.Begin(), uint64(i)))
	}
	return w.Close()
}

// TestWriterResetReuses requires a writer reset onto a new sink to emit
// exactly the bytes a fresh writer does, and to allocate nothing once
// its buffers have grown.
func TestWriterResetReuses(t *testing.T) {
	want := writeRecords(t, 10000, 1000, []byte("HDRX"))
	var buf bytes.Buffer
	w := NewWriter(io.Discard, 1000)
	for round := 0; round < 3; round++ {
		buf.Reset()
		if err := writeLog(w, &buf, 10000); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("round %d: reset writer emitted %d bytes differing from a fresh writer's %d", round, buf.Len(), len(want))
		}
	}
	avg := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := writeLog(w, &buf, 10000); err != nil {
			t.Error(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm writer allocates %.1f times per file, want 0", avg)
	}
}

// writeCounter records the size of every Write it receives.
type writeCounter struct{ sizes []int }

func (c *writeCounter) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return len(p), nil
}

// TestWriterOneWritePerBlock pins the sink traffic: one Write for the
// header, one per block, and the last block travels with the end marker
// and footer in a single final Write.
func TestWriterOneWritePerBlock(t *testing.T) {
	var c writeCounter
	if err := writeLog(NewWriter(nil, 256), &c, 5000); err != nil {
		t.Fatal(err)
	}
	data := writeRecords(t, 5000, 256, []byte("HDRX"))
	blocks, _, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.sizes) != 1+len(blocks) {
		t.Fatalf("%d writes for a header and %d blocks", len(c.sizes), len(blocks))
	}
	for i, blk := range blocks[:len(blocks)-1] {
		if got := int64(c.sizes[1+i]); got != blk.DataLen() {
			t.Fatalf("write %d is %d bytes, block %d is %d", 1+i, got, i, blk.DataLen())
		}
	}
}

// TestGroupBlocksRejectsGap requires the fetch-group split to refuse an
// index whose blocks are not contiguous.
func TestGroupBlocksRejectsGap(t *testing.T) {
	data := writeRecords(t, 5000, 128, nil)
	blocks, _, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	groups, total, err := groupBlocks(blocks, 1024)
	if err != nil || total != 5000 || len(groups) < 2 {
		t.Fatalf("%d groups, %d records, %v", len(groups), total, err)
	}
	for i, g := range groups {
		if i > 0 && (g.First != groups[i-1].Last+1 || g.Off != groups[i-1].Off+groups[i-1].Len) {
			t.Fatalf("group %d does not follow group %d: %+v after %+v", i, i-1, g, groups[i-1])
		}
	}
	blocks[3].Offset++
	if _, _, err := groupBlocks(blocks, 1024); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gapped index: %v, want a gap error", err)
	}
}

// TestFanOutStopsOnError is the regression test for the parallel-reader
// hang: with every worker failed and groups left to dispatch, fanOut must
// return instead of blocking, and report the lowest failing group.
func TestFanOutStopsOnError(t *testing.T) {
	data := writeRecords(t, 5000, 64, nil)
	blocks, _, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	groups, _, err := groupBlocks(blocks, 1) // one block per group
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		var calls atomic.Int64
		done := make(chan error, 1)
		go func() {
			done <- fanOut(bytes.NewReader(data), groups, workers, func(_, gi int, _ []byte) error {
				calls.Add(1)
				return fmt.Errorf("group %d failed", gi)
			})
		}()
		select {
		case err := <-done:
			if err == nil || calls.Load() > int64(workers) {
				t.Fatalf("workers=%d: %v after %d calls", workers, err, calls.Load())
			}
			if workers == 1 && err.Error() != "group 0 failed" {
				t.Fatalf("workers=1: %v, want group 0's error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: fanOut hung after every worker failed", workers)
		}
	}
}

// TestFetchWindow: a file splits into a window per worker until the
// share reaches the limit; one worker, and every file of at least
// workers×limit bytes, keeps the limit.
func TestFetchWindow(t *testing.T) {
	for _, c := range []struct {
		size    int64
		workers int
		want    int64
	}{
		{600 << 10, 2, 300 << 10},
		{600<<10 + 1, 2, 300<<10 + 1},
		{600 << 10, 1, DefaultFetchWindow},
		{600 << 10, 0, DefaultFetchWindow},
		{192 << 20, 2, DefaultFetchWindow},
		{192 << 20, 16, DefaultFetchWindow},
		{8 << 20, 2, DefaultFetchWindow},
		{1, 4, 1},
	} {
		if got := fetchWindow(DefaultFetchWindow, c.size, c.workers); got != c.want {
			t.Errorf("fetchWindow(%d bytes, %d workers) = %d, want %d", c.size, c.workers, got, c.want)
		}
	}
}

// TestIndexDecodeMatchesSequential: at every worker count Index.Decode
// hands fn each block once, with its file-wide first record, so the
// records land exactly where the streaming Reader reads them, and every
// block reaches stats.
func TestIndexDecodeMatchesSequential(t *testing.T) {
	header := []byte("HDRX")
	data := writeRecords(t, 10000, 64, header)
	for _, workers := range []int{0, 1, 2, 8} {
		idx, err := OpenIndex(bytes.NewReader(data), int64(len(data)), int64(len(header)), 1024, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if idx.Records != 10000 || len(idx.Groups) < 2 {
			t.Fatalf("workers=%d: %d records in %d groups", workers, idx.Records, len(idx.Groups))
		}
		got := make([]uint64, idx.Records)
		stats := &countingStats{}
		err = idx.Decode(stats, func(_, b int, first, records int64, payload []byte) error {
			for k := first; k < first+records; k++ {
				v, n := binary.Uvarint(payload)
				if n <= 0 {
					return fmt.Errorf("block %d: bad record %d", b, k)
				}
				got[k] = v
				payload = payload[n:]
			}
			if len(payload) != 0 {
				return fmt.Errorf("block %d: %d leftover payload bytes", b, len(payload))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != uint64(i) {
				t.Fatalf("workers=%d: record %d = %d", workers, i, v)
			}
		}
		if stats.records.Load() != 10000 || stats.blocks.Load() != int64(len(idx.Blocks)) || stats.crcFails.Load() != 0 {
			t.Fatalf("workers=%d: stats saw %d blocks, %d records, %d crc failures", workers,
				stats.blocks.Load(), stats.records.Load(), stats.crcFails.Load())
		}
	}
}

// TestIndexRejectsDamage: the index must describe the whole file — the
// blocks from the end of the header to the end marker right before the
// footer, each holding the records the footer claims — or the file is
// refused, when opened or at the block the footer misdescribes.
func TestIndexRejectsDamage(t *testing.T) {
	header := []byte("HDRX")
	hl := int64(len(header))
	data := writeRecords(t, 2000, 64, header)
	blocks, _, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	last := blocks[len(blocks)-1]
	end := last.Offset + last.DataLen() // the end marker
	body := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	edited := func(edit func([]Block)) []Block {
		bs := append([]Block(nil), blocks...)
		edit(bs)
		return bs
	}
	shifted := edited(func(bs []Block) {
		for i := range bs {
			bs[i].Offset += 3
		}
	})
	cases := []struct {
		name, want string
		file       []byte
	}{
		{"tail cut", "footer magic", data[:len(data)-8]},
		{"junk after header", "data starts at offset 7, header ends at 4",
			AppendFooter(body(header, []byte("xyz"), data[hl:end+1]), shifted)},
		{"junk before end marker", "last block ends",
			AppendFooter(body(data[:end], []byte("xyz"), []byte{0}), blocks)},
		{"no end marker", "no end marker", AppendFooter(body(data[:end]), blocks)},
		{"records beyond payload", "cannot fit", AppendFooter(body(data[:end+1]),
			edited(func(bs []Block) { bs[0].Records = bs[0].PayloadLen + 1 }))},
		{"footer count off by one", "header says", AppendFooter(body(data[:end+1]),
			edited(func(bs []Block) { bs[0].Records-- }))},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 8} {
			idx, err := OpenIndex(bytes.NewReader(c.file), int64(len(c.file)), hl, 1024, workers)
			if err == nil {
				err = idx.Decode(nil, func(int, int, int64, int64, []byte) error { return nil })
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, workers=%d: %v, want an error naming %q", c.name, workers, err, c.want)
			}
		}
	}
}
