package profile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dmexplore/internal/blockio"
	"dmexplore/internal/memhier"
)

// Raw profile-log format. The paper's profiling tools dump every memory
// access of a run (logs "can reach Gigabytes for one single
// configuration") and the result parser processes them in under 20
// seconds. dmexplore reproduces the pipeline: the emitter below streams
// one record per charged access; ParseLog aggregates a log back into
// per-layer counters at hundreds of MB/s (benchmark E6), and
// ParseLogParallel splits a block-framed log across every core.
//
// Record layout (little-endian varints):
//
//	flags byte: bit0 = write, bits 1..7 = layer id
//	uvarint    address
//	uvarint    word count
//
// A log starts with "DMPL" and a version byte (2), then frames the
// records into CRC32C blocks with a seekable footer index
// (internal/blockio), so corruption is detected per block and a
// multi-gigabyte log can be ingested in parallel.
//
// The layer id has seven bits, so a log names at most logMaxLayers+1
// layers; Replayer.Run refuses to log a deeper hierarchy.
const logMaxLayers = 127

const (
	logMagic     = "DMPL"
	logVersionV2 = 2
)

// logHeader opens every log.
var logHeader = []byte{logMagic[0], logMagic[1], logMagic[2], logMagic[3], logVersionV2}

// logWriter implements simheap.AccessTracer, streaming records to a sink
// as a block-framed log. Each record is encoded straight into the block
// buffer, and a Replayer keeps one logWriter across runs (reset) so a
// warm logged replay allocates nothing. Write errors are sticky and
// surfaced by Err, so the profiler can abort a doomed multi-gigabyte
// emit early instead of discovering the dead file at Flush.
type logWriter struct {
	blk *blockio.Writer
}

func newLogWriter(w io.Writer) *logWriter {
	l := &logWriter{blk: blockio.NewWriter(w, 0)}
	l.blk.WriteHeader(logHeader)
	return l
}

// reset starts a new log on w, keeping the block buffer.
func (l *logWriter) reset(w io.Writer) {
	l.blk.Reset(w)
	l.blk.WriteHeader(logHeader)
}

// TraceAccess implements simheap.AccessTracer.
func (l *logWriter) TraceAccess(layer memhier.LayerID, addr uint64, words uint64, write bool) {
	flags := byte(layer) << 1
	if write {
		flags |= 1
	}
	b := append(l.blk.Begin(), flags)
	b = binary.AppendUvarint(b, addr)
	l.blk.Commit(binary.AppendUvarint(b, words))
}

// Err returns the first deferred write error without finalizing the log.
// The replay loop polls it so a full disk stops the simulation within a
// bounded number of events.
func (l *logWriter) Err() error { return l.blk.Err() }

// Flush finalizes the log (the last block, end marker and footer index)
// and returns any deferred write error.
func (l *logWriter) Flush() error { return l.blk.Close() }

// LogSummary aggregates a raw profile log.
type LogSummary struct {
	Records uint64
	// Reads/Writes are word counts per layer id.
	Reads  [logMaxLayers + 1]uint64
	Writes [logMaxLayers + 1]uint64
}

// TotalWords returns the total words accessed.
func (s *LogSummary) TotalWords() uint64 {
	var t uint64
	for i := range s.Reads {
		t += s.Reads[i] + s.Writes[i]
	}
	return t
}

// merge adds o's counters into s.
func (s *LogSummary) merge(o *LogSummary) {
	s.Records += o.Records
	for i := range s.Reads {
		s.Reads[i] += o.Reads[i]
		s.Writes[i] += o.Writes[i]
	}
}

// parseLogRecords aggregates the records in one in-memory chunk. Every
// word count and the shortest addresses fit in one varint byte, so the
// common lengths decode inline; anything longer goes through
// binary.Uvarint, and the decoder accepts and rejects exactly the inputs
// binary.Uvarint does. Words are summed by flags byte, with no branch on
// the write bit, and folded into s once the whole chunk has decoded; a
// chunk that fails leaves s as it was.
func parseLogRecords(buf []byte, s *LogSummary) error {
	var byFlags [256]uint64
	records := s.Records
	for len(buf) > 0 {
		flags := buf[0]
		// The address is unused by the summary: only its length matters.
		// A varint of up to four bytes cannot overflow, so any terminator
		// byte (high bit clear) among them ends it.
		var n int
		switch {
		case len(buf) > 1 && buf[1] < 0x80:
			n = 2
		case len(buf) > 2 && buf[2] < 0x80:
			n = 3
		case len(buf) > 3 && buf[3] < 0x80:
			n = 4
		default:
			_, k := binary.Uvarint(buf[1:])
			if k <= 0 {
				return fmt.Errorf("profile: record %d: bad address", records)
			}
			n = 1 + k
		}
		var words uint64
		if n < len(buf) && buf[n] < 0x80 {
			words = uint64(buf[n])
			n++
		} else {
			w, k := binary.Uvarint(buf[n:])
			if k <= 0 {
				return fmt.Errorf("profile: record %d: bad word count", records)
			}
			words = w
			n += k
		}
		buf = buf[n:]
		byFlags[flags] += words
		records++
	}
	// Flags byte f is layer f>>1, a write when its low bit is set.
	for layer := range s.Reads {
		s.Reads[layer] += byFlags[2*layer]
		s.Writes[layer] += byFlags[2*layer+1]
	}
	s.Records = records
	return nil
}

// ParseLog streams a raw profile log front to back and aggregates
// per-layer counters, checking every block's CRC and never reading the
// footer index. It is the streaming reference the tests, fuzzers and
// scripts/benchparse.go's serial baseline compare ParseLogParallel with;
// production code ingests through ParseLogParallel.
func ParseLog(r io.Reader) (*LogSummary, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, len(logHeader))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("profile: reading log header: %w", err)
	}
	if err := checkLogHeader(head); err != nil {
		return nil, err
	}
	s := &LogSummary{}
	blocks := blockio.NewReader(br)
	for {
		records, payload, err := blocks.Next()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		before := s.Records
		if err := parseLogRecords(payload, s); err != nil {
			return nil, err
		}
		if s.Records-before != uint64(records) {
			return nil, fmt.Errorf("profile: block holds %d records, header says %d", s.Records-before, records)
		}
	}
}

// checkLogHeader validates the magic and version at the start of a log.
func checkLogHeader(head []byte) error {
	if string(head[:len(logMagic)]) != logMagic {
		return fmt.Errorf("profile: bad log magic %q", head[:len(logMagic)])
	}
	if v := head[len(logMagic)]; v != logVersionV2 {
		return fmt.Errorf("profile: unsupported log version %d", v)
	}
	return nil
}

// ParseLogParallel aggregates a raw profile log through its footer index
// with up to workers goroutines (below 1 reads as 1). Each worker merges
// its blocks into a private partial LogSummary; the partials sum at the
// end, so the totals are identical to ParseLog on the same bytes. A log
// without a valid footer index is rejected at every worker count. stats
// may be nil.
func ParseLogParallel(ra io.ReaderAt, size int64, workers int, stats blockio.Stats) (*LogSummary, error) {
	idx, err := openLog(ra, size, workers)
	if err != nil {
		return nil, err
	}
	partials := make([]LogSummary, min(max(workers, 1), len(idx.Groups))) // one per decoding goroutine
	err = idx.Decode(stats, func(w, b int, _, records int64, payload []byte) error {
		s := &partials[w]
		before := s.Records
		if err := parseLogRecords(payload, s); err != nil {
			return err
		}
		if s.Records-before != uint64(records) {
			return fmt.Errorf("profile: log block %d holds %d records, header says %d", b, s.Records-before, records)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := &LogSummary{}
	for w := range partials {
		s.merge(&partials[w])
	}
	return s, nil
}

// openLog checks a log's header and opens its footer index for workers
// goroutines.
func openLog(ra io.ReaderAt, size int64, workers int) (*blockio.Index, error) {
	header := make([]byte, len(logHeader))
	if _, err := ra.ReadAt(header, 0); err != nil {
		return nil, fmt.Errorf("profile: reading log header: %w", err)
	}
	if err := checkLogHeader(header); err != nil {
		return nil, err
	}
	return blockio.OpenIndex(ra, size, int64(len(logHeader)), logFetchWindowBytes, workers)
}

// logFetchWindowBytes is the largest fetch window ParseLogParallel groups
// blocks into (see blockio.OpenIndex). A variable for tests.
var logFetchWindowBytes int64 = blockio.DefaultFetchWindow

// WriteSyntheticLog emits a deterministic pseudo-random raw profile log
// of the given record count — the workload for ingestion benchmarks and
// fuzz corpora, cheap enough to synthesize gigabytes in seconds.
func WriteSyntheticLog(w io.Writer, records int, seed uint64) error {
	lw := newLogWriter(w)
	state := seed | 1
	for i := 0; i < records; i++ {
		// xorshift64: cheap, deterministic, spreads layers and sizes.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		layer := memhier.LayerID(state % 4)
		addr := (state >> 8) % (1 << 28)
		words := state%64 + 1
		lw.TraceAccess(layer, addr, words, state&(1<<7) != 0)
		if err := lw.Err(); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// SameSummary reports whether two log summaries are identical — the
// serial/parallel equivalence check used by tests and the ingestion
// benchmark.
func SameSummary(a, b *LogSummary) bool {
	return a.Records == b.Records && a.Reads == b.Reads && a.Writes == b.Writes
}
