package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"dmexplore/internal/blockio"
)

// fetchWindowBytes is the largest fetch window the parallel readers
// group blocks into (see blockio.FetchWindow and GroupBlocks). A
// variable so tests can exercise multi-window decoding on small files.
var fetchWindowBytes int64 = blockio.DefaultFetchWindow

// ReadBinaryParallel parses a binary trace with up to workers goroutines.
// The file is split along the footer's block index: every block's
// records are decoded straight into its preallocated slice of the shared
// event slab, so the merge is free and the result is bit-identical to
// the sequential ReadBinary (which workers <= 1 runs). stats may be nil.
func ReadBinaryParallel(ra io.ReaderAt, size int64, workers int, stats blockio.Stats) (*Trace, error) {
	if workers <= 1 {
		return readBinary(io.NewSectionReader(ra, 0, size), stats)
	}
	return readBlocks(ra, size, workers, stats)
}

// readBlocks decodes a v2 trace's blocks into their preallocated slices
// of one event slab, a fetch window at a time across workers
// goroutines.
func readBlocks(ra io.ReaderAt, size int64, workers int, stats blockio.Stats) (*Trace, error) {
	name, blocks, groups, total, err := openV2(ra, size, workers)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: name}
	if len(groups) == 0 {
		return t, nil
	}
	t.Events = make([]Event, total)
	err = blockio.FanOut(ra, groups, workers, func(_, gi int, window []byte) error {
		return decodeGroup(window, blocks, groups[gi], t.Events, stats)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// openV2 validates a v2 trace's header and footer index and groups its
// blocks into fetch windows for workers goroutines. It returns the trace
// name, the block index, the windows and the total event count.
func openV2(ra io.ReaderAt, size int64, workers int) (string, []blockio.Block, []blockio.Group, int64, error) {
	header := make([]byte, len(binaryMagic)+1+binary.MaxVarintLen64)
	if int64(len(header)) > size {
		header = header[:size]
	}
	if _, err := ra.ReadAt(header, 0); err != nil && err != io.EOF {
		return "", nil, nil, 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) < len(binaryMagic)+1 || string(header[:len(binaryMagic)]) != binaryMagic {
		return "", nil, nil, 0, fmt.Errorf("trace: bad magic")
	}
	if version := header[len(binaryMagic)]; version != binaryVersionV2 {
		return "", nil, nil, 0, fmt.Errorf("trace: unsupported version %d", version)
	}
	nameLen, n := binary.Uvarint(header[len(binaryMagic)+1:])
	if n <= 0 {
		return "", nil, nil, 0, fmt.Errorf("trace: truncated name length")
	}
	if nameLen > maxNameLen {
		return "", nil, nil, 0, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	nameOff := int64(len(binaryMagic) + 1 + n)
	name := make([]byte, nameLen)
	if _, err := ra.ReadAt(name, nameOff); err != nil {
		return "", nil, nil, 0, fmt.Errorf("trace: reading name: %w", err)
	}
	blocks, err := blockio.ReadIndex(ra, size)
	if err != nil {
		return "", nil, nil, 0, err
	}
	groups, total, err := blockio.GroupBlocks(blocks, blockio.FetchWindow(fetchWindowBytes, size, workers))
	if err != nil {
		return "", nil, nil, 0, err
	}
	if total > maxBinaryEvents {
		return "", nil, nil, 0, fmt.Errorf("trace: implausible event count %d (max %d) — corrupt or hostile footer", total, int64(maxBinaryEvents))
	}
	if end := nameOff + int64(nameLen); len(blocks) > 0 && blocks[0].Offset != end {
		return "", nil, nil, 0, fmt.Errorf("trace: first block at offset %d, header ends at %d", blocks[0].Offset, end)
	}
	return string(name), blocks, groups, total, nil
}

// decodeGroup decodes one fetched window's blocks into their slab
// slices.
func decodeGroup(window []byte, blocks []blockio.Block, g blockio.Group, events []Event, stats blockio.Stats) error {
	next := g.FirstRecord
	for b := g.First; b <= g.Last; b++ {
		records, payload, rest, err := blockio.ParseBlock(window, stats)
		if err != nil {
			return fmt.Errorf("trace: block %d (offset %d): %w", b, blocks[b].Offset, err)
		}
		if records != blocks[b].Records {
			return fmt.Errorf("trace: block %d: header says %d records, footer says %d", b, records, blocks[b].Records)
		}
		window = rest
		for k := int64(0); k < records; k++ {
			n, err := decodeEvent(payload, &events[next])
			if err != nil {
				return fmt.Errorf("trace: block %d, record %d (event %d): %w", b, k, next, err)
			}
			payload = payload[n:]
			next++
		}
		if len(payload) != 0 {
			return fmt.Errorf("trace: block %d: %d payload bytes beyond its %d records", b, len(payload), records)
		}
	}
	return nil
}

// ReadFile reads a trace file, sniffing binary vs text. Binary files are
// decoded block-parallel across workers goroutines (workers <= 1 and
// text read sequentially). stats may be nil.
func ReadFile(path string, workers int, stats blockio.Stats) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var magic [len(binaryMagic)]byte
	if n, _ := f.ReadAt(magic[:], 0); n == len(magic) && string(magic[:]) == binaryMagic {
		return ReadBinaryParallel(f, fi.Size(), workers, stats)
	}
	return ReadText(f)
}

// CompileBinaryParallel parses a binary trace and compiles it for replay
// in one step: its blocks are decoded along the footer's block index by
// up to workers goroutines, then checked and densely renumbered in one
// sequential pass, so the result is bit-identical to ReadBinary +
// Compile. stats may be nil.
func CompileBinaryParallel(ra io.ReaderAt, size int64, workers int, stats blockio.Stats) (*Compiled, error) {
	t, err := readBlocks(ra, size, workers, stats)
	if err != nil {
		return nil, err
	}
	return Compile(t)
}

// ReadCompiledFile reads a trace file and compiles it for replay in one
// step. Binary files go through CompileBinaryParallel, which decodes
// their blocks in parallel even for one worker; text files are parsed
// then compiled.
func ReadCompiledFile(path string, workers int, stats blockio.Stats) (*Compiled, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var magic [len(binaryMagic)]byte
	if n, _ := f.ReadAt(magic[:], 0); n == len(magic) && string(magic[:]) == binaryMagic {
		return CompileBinaryParallel(f, fi.Size(), workers, stats)
	}
	t, err := ReadText(f)
	if err != nil {
		return nil, err
	}
	return Compile(t)
}
