package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dmexplore/internal/stats"
)

// randomTrace builds a valid pseudo-random trace of roughly n events.
func randomTrace(name string, n int, seed uint64) *Trace {
	rng := stats.NewRNG(seed)
	b := NewBuilder(name)
	var live []uint64
	for i := 0; i < n; i++ {
		switch {
		case len(live) > 0 && rng.Bool(0.3):
			k := rng.Intn(len(live))
			b.Free(live[k])
			live = append(live[:k], live[k+1:]...)
		case len(live) > 0 && rng.Bool(0.4):
			b.Access(live[rng.Intn(len(live))], uint64(rng.Intn(500)), uint64(rng.Intn(500)+1))
		case rng.Bool(0.1):
			b.Tick(uint64(rng.Intn(100000) + 1))
		default:
			live = append(live, b.Alloc(int64(rng.Intn(1<<20))+1))
		}
	}
	b.FreeAll()
	return b.Build()
}

func TestBinaryV2RoundTrip(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(), randomTrace("v2prop", 20000, 7)} {
		var buf bytes.Buffer
		if err := WriteBinaryV2(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != tr.Name || !reflect.DeepEqual(got.Events, tr.Events) {
			t.Fatalf("%s: v2 round trip diverged", tr.Name)
		}
	}
}

func TestReadBinaryParallelMatchesSequential(t *testing.T) {
	defer func(w int64) { fetchWindowBytes = w }(fetchWindowBytes)
	fetchWindowBytes = 16 << 10 // many fetch groups on a small file

	tr := randomTrace("par", 50000, 11)
	var buf bytes.Buffer
	if err := writeBinaryV2(&buf, tr, 4096); err != nil { // many blocks
		t.Fatal(err)
	}
	data := buf.Bytes()
	seq, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	wantCompiled, err := Compile(seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Name != tr.Name || !reflect.DeepEqual(got.Events, tr.Events) {
			t.Fatalf("workers=%d: parallel read diverged from the source trace", workers)
		}
		gotCompiled, err := Compile(got)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(gotCompiled, wantCompiled) {
			t.Fatalf("workers=%d: compiled trace diverged", workers)
		}
	}
}

// TestBinaryV1Rejected pins the removal of the unframed v1 layout: every
// binary reader refuses a v1 header by name instead of misparsing it.
func TestBinaryV1Rejected(t *testing.T) {
	v1 := []byte("DMTR\x01\x00\x02\x01\x01\x40\x02\x01") // name "", 2 events
	reads := map[string]func() error{
		"sequential": func() error { _, err := ReadBinary(bytes.NewReader(v1)); return err },
		"parallel-1": func() error { _, err := ReadBinaryParallel(bytes.NewReader(v1), int64(len(v1)), 1, nil); return err },
		"parallel-4": func() error { _, err := ReadBinaryParallel(bytes.NewReader(v1), int64(len(v1)), 4, nil); return err },
	}
	for name, read := range reads {
		if err := read(); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
			t.Errorf("%s: %v, want an unsupported-version error", name, err)
		}
	}
}

// TestBinaryV2ImplausibleCountRejected feeds the indexed reader a footer
// whose single entry claims 2^40 events in an empty payload: it must be
// rejected by name before any event slab is allocated, at every worker
// count. Every record takes at least one payload byte, so no footer can
// claim more events than its file has bytes.
func TestBinaryV2ImplausibleCountRejected(t *testing.T) {
	file := []byte("DMTR\x02\x00\x00")       // header, empty name, end marker
	footer := binary.AppendUvarint(nil, 1)   // one block entry:
	footer = binary.AppendUvarint(footer, 6) // offset just past the header
	footer = binary.AppendUvarint(footer, 1<<40)
	footer = binary.AppendUvarint(footer, 0)
	file = append(file, footer...)
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(footer, crc32.MakeTable(crc32.Castagnoli)))
	file = binary.LittleEndian.AppendUint64(file, uint64(len(footer)))
	file = append(file, "DMBX"...)
	for _, workers := range []int{1, 4} {
		if _, err := ReadBinaryParallel(bytes.NewReader(file), int64(len(file)), workers, nil); err == nil ||
			!strings.Contains(err.Error(), "1099511627776 records cannot fit in 0 payload bytes") {
			t.Fatalf("workers=%d: %v, want an implausible-count error", workers, err)
		}
	}
}

func TestReadFileAllFormats(t *testing.T) {
	tr := randomTrace("files", 8000, 5)
	dir := t.TempDir()
	writers := map[string]func(*os.File) error{
		"text": func(f *os.File) error { return WriteText(f, tr) },
		"v2":   func(f *os.File) error { return WriteBinaryV2(f, tr) },
	}
	for format, write := range writers {
		path := filepath.Join(dir, format+".dmt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path, 4, nil)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !reflect.DeepEqual(got.Events, tr.Events) {
			t.Fatalf("%s: ReadFile diverged", format)
		}
		c, err := ReadCompiledFile(path, 4, nil)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if c.Len() != tr.Len() {
			t.Fatalf("%s: compiled %d ops for %d events", format, c.Len(), tr.Len())
		}
	}
}

func TestBinaryV2CorruptionDetected(t *testing.T) {
	tr := randomTrace("crc", 10000, 9)
	var buf bytes.Buffer
	if err := writeBinaryV2(&buf, tr, 2048); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	data[len(data)/2] ^= 0x40 // flip a bit mid-file
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("sequential read accepted corruption")
	}
	if _, err := ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), 4, nil); err == nil {
		t.Fatal("parallel read accepted corruption")
	}
}

func TestBinaryV2MissingFooterFailsParallelOnly(t *testing.T) {
	tr := randomTrace("nofoot", 5000, 17)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-8] // chop into the footer trailer
	// The streaming reader never needs the footer...
	got, err := ReadBinary(bytes.NewReader(data))
	if err != nil || !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("streaming read of footer-chopped file: %v", err)
	}
	// ...but the index-driven reader must refuse loudly, at one worker as
	// at four.
	for _, workers := range []int{1, 4} {
		if _, err := ReadBinaryParallel(bytes.NewReader(data), int64(len(data)), workers, nil); err == nil {
			t.Fatalf("workers=%d: indexed read accepted a chopped footer", workers)
		}
	}
}

// TestWriteBinaryV2BytesPinned pins the v2 trace bytes: the digests were
// recorded from the writer that copied each record through a scratch
// buffer and a bufio.Writer, before records were encoded in place.
func TestWriteBinaryV2BytesPinned(t *testing.T) {
	tr := randomTrace("pin", 20000, 5)
	for _, c := range []struct {
		target int
		size   int
		digest string
	}{
		{0, 106970, "7f2e954edf631defb2f2d71f083688104ae2de9f0e75971cbf34e639c3dc31df"},
		{4096, 107330, "f8829236b3fd9e4bf2adb9f7a7af26dce73772c6edb74a94bfaa4312d0291e2c"},
	} {
		var buf bytes.Buffer
		if err := writeBinaryV2(&buf, tr, c.target); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != c.size || got != c.digest {
			t.Errorf("target %d: %d bytes sha256 %s, want %d bytes %s", c.target, buf.Len(), got, c.size, c.digest)
		}
	}
}

// TestParallelReadersFailFast is the regression test for the parallel
// reader hang: with one block per fetch group and the CRC broken on the
// first two blocks, both workers fail while groups remain to dispatch,
// and the reader must return the error instead of blocking.
func TestParallelReadersFailFast(t *testing.T) {
	defer func(w int64) { fetchWindowBytes = w }(fetchWindowBytes)
	fetchWindowBytes = 1 // one block per fetch group

	var buf bytes.Buffer
	if err := writeBinaryV2(&buf, randomTrace("crc", 20000, 3), 1024); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	_, idx, err := openV2(bytes.NewReader(data), int64(len(data)), 2)
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
		_, err := ReadBinaryParallel(bytes.NewReader(corrupt), int64(len(corrupt)), 2, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "crc") {
			t.Fatalf("ReadBinaryParallel: %v, want a crc error", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("ReadBinaryParallel hung after every worker failed")
	}
}
