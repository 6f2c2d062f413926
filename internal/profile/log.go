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
const logMaxLayers = 127

const (
	logMagic     = "DMPL"
	logVersionV2 = 2
)

// logWriter implements simheap.AccessTracer, streaming records to w as a
// block-framed log. Write errors are sticky and surfaced by Err, so the
// profiler can abort a doomed multi-gigabyte emit early instead of
// discovering the dead file at Flush.
type logWriter struct {
	blk     *blockio.Writer
	scratch [1 + 2*binary.MaxVarintLen64]byte
}

func newLogWriter(w io.Writer) *logWriter {
	blk := blockio.NewWriter(w, 0)
	blk.WriteHeader([]byte{logMagic[0], logMagic[1], logMagic[2], logMagic[3], logVersionV2})
	return &logWriter{blk: blk}
}

// TraceAccess implements simheap.AccessTracer.
func (l *logWriter) TraceAccess(layer memhier.LayerID, addr uint64, words uint64, write bool) {
	flags := byte(layer) << 1
	if write {
		flags |= 1
	}
	l.scratch[0] = flags
	n := 1 + binary.PutUvarint(l.scratch[1:], addr)
	n += binary.PutUvarint(l.scratch[n:], words)
	l.blk.Record(l.scratch[:n])
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

// parseLogRecords aggregates the records in one in-memory chunk.
func parseLogRecords(buf []byte, s *LogSummary) error {
	for len(buf) > 0 {
		flags := buf[0]
		_, n := binary.Uvarint(buf[1:]) // address (unused by the summary)
		if n <= 0 {
			return fmt.Errorf("profile: record %d: bad address", s.Records)
		}
		words, k := binary.Uvarint(buf[1+n:])
		if k <= 0 {
			return fmt.Errorf("profile: record %d: bad word count", s.Records)
		}
		buf = buf[1+n+k:]
		layer := flags >> 1
		if flags&1 == 1 {
			s.Writes[layer] += words
		} else {
			s.Reads[layer] += words
		}
		s.Records++
	}
	return nil
}

// ParseLog streams a raw profile log and aggregates per-layer counters,
// checking every block's CRC. It is the performance-critical path of the
// result pipeline and avoids any per-record allocation.
func ParseLog(r io.Reader) (*LogSummary, error) {
	return parseLog(r, nil)
}

// parseLog is ParseLog with ingest accounting; stats may be nil.
func parseLog(r io.Reader, stats blockio.Stats) (*LogSummary, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, len(logMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("profile: reading log header: %w", err)
	}
	if err := checkLogHeader(head); err != nil {
		return nil, err
	}
	s := &LogSummary{}
	blocks := blockio.NewReader(br, stats)
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

// ParseLogParallel aggregates a raw profile log with up to workers
// goroutines. The log is split along the footer index and each worker
// merges its blocks into a private partial LogSummary; the partials sum
// at the end, so the totals are identical to ParseLog on the same bytes.
// workers <= 1 streams the log serially. stats may be nil; both paths
// feed it.
func ParseLogParallel(ra io.ReaderAt, size int64, workers int, stats blockio.Stats) (*LogSummary, error) {
	if workers <= 1 {
		return parseLog(io.NewSectionReader(ra, 0, size), stats)
	}
	header := make([]byte, len(logMagic)+1)
	if _, err := ra.ReadAt(header, 0); err != nil {
		return nil, fmt.Errorf("profile: reading log header: %w", err)
	}
	if err := checkLogHeader(header); err != nil {
		return nil, err
	}
	blocks, err := blockio.ReadIndex(ra, size)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	groups := groupLogBlocks(blocks)
	if len(groups) == 0 {
		return &LogSummary{}, nil
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	jobs := make(chan logGroup)
	partials := make([]LogSummary, workers)
	errs := make([]error, workers)
	done := make(chan int)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- w }()
			var buf []byte
			for g := range jobs {
				if err := parseLogGroup(ra, g, &partials[w], &buf, stats); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	for _, g := range groups {
		jobs <- g
	}
	close(jobs)
	s := &LogSummary{}
	for w := 0; w < workers; w++ {
		<-done
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		s.merge(&partials[w])
	}
	return s, nil
}

// logGroup is a contiguous run of blocks fetched with one ReadAt.
type logGroup struct {
	off, length int64
	blocks      int
}

// groupLogBlocks coalesces adjacent index entries into fetch windows.
func groupLogBlocks(blocks []blockio.Block) []logGroup {
	var groups []logGroup
	for i := 0; i < len(blocks); {
		g := logGroup{off: blocks[i].Offset}
		end := blocks[i].Offset
		for i < len(blocks) {
			blkEnd := blocks[i].Offset + blocks[i].DataLen()
			if blkEnd-g.off > logFetchWindowBytes && g.blocks > 0 {
				break
			}
			end = blkEnd
			g.blocks++
			i++
		}
		g.length = end - g.off
		groups = append(groups, g)
	}
	return groups
}

// logFetchWindowBytes mirrors the trace reader's fetch window: one
// ReadAt per ~4 MiB of contiguous blocks. A variable for tests.
var logFetchWindowBytes int64 = 4 << 20

// parseLogGroup fetches one window and aggregates its blocks into s.
func parseLogGroup(ra io.ReaderAt, g logGroup, s *LogSummary, buf *[]byte, stats blockio.Stats) error {
	if int64(cap(*buf)) < g.length {
		*buf = make([]byte, g.length)
	}
	window := (*buf)[:g.length]
	if _, err := ra.ReadAt(window, g.off); err != nil {
		return fmt.Errorf("profile: reading log blocks at offset %d: %w", g.off, err)
	}
	for b := 0; b < g.blocks; b++ {
		records, payload, rest, err := blockio.ParseBlock(window, stats)
		if err != nil {
			return fmt.Errorf("profile: log block at offset %d: %w", g.off, err)
		}
		window = rest
		before := s.Records
		if err := parseLogRecords(payload, s); err != nil {
			return err
		}
		if s.Records-before != uint64(records) {
			return fmt.Errorf("profile: log block holds %d records, header says %d", s.Records-before, records)
		}
	}
	return nil
}

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
