package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"dmexplore/internal/blockio"
)

// fetchWindowBytes is the largest fetch window ReadBinaryParallel groups
// blocks into (see blockio.OpenIndex). A variable so tests can exercise
// multi-window decoding on small files.
var fetchWindowBytes int64 = blockio.DefaultFetchWindow

// ReadBinaryParallel parses a v2 binary trace through its footer index
// with up to workers goroutines (below 1 reads as 1). Every block's
// records are decoded straight into its preallocated slice of the shared
// event slab, so the merge is free and the result is bit-identical to
// the streaming ReadBinary; a file without a valid footer index is
// rejected at every worker count. stats may be nil.
func ReadBinaryParallel(ra io.ReaderAt, size int64, workers int, stats blockio.Stats) (*Trace, error) {
	name, idx, err := openV2(ra, size, workers)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: name}
	if idx.Records == 0 {
		return t, nil
	}
	t.Events = make([]Event, idx.Records)
	err = idx.Decode(stats, func(_, b int, first, records int64, payload []byte) error {
		events := t.Events[first : first+records]
		for k := range events {
			n, err := decodeEvent(payload, &events[k])
			if err != nil {
				return fmt.Errorf("trace: block %d, record %d (event %d): %w", b, k, first+int64(k), err)
			}
			payload = payload[n:]
		}
		if len(payload) != 0 {
			return fmt.Errorf("trace: block %d: %d payload bytes beyond its %d records", b, len(payload), records)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// openV2 validates a v2 trace's header and opens its footer index for
// workers goroutines. It returns the trace name and the index.
func openV2(ra io.ReaderAt, size int64, workers int) (string, *blockio.Index, error) {
	cr := &countingReader{r: io.NewSectionReader(ra, 0, size)}
	br := bufio.NewReaderSize(cr, 64)
	name, err := readHeader(br)
	if err != nil {
		return "", nil, err
	}
	idx, err := blockio.OpenIndex(ra, size, cr.n-int64(br.Buffered()), fetchWindowBytes, workers)
	if err != nil {
		return "", nil, err
	}
	if idx.Records > maxBinaryEvents {
		return "", nil, fmt.Errorf("trace: implausible event count %d (max %d) — corrupt or hostile footer", idx.Records, int64(maxBinaryEvents))
	}
	return name, idx, nil
}

// ReadFile reads a trace file, sniffing binary vs text. Binary files go
// through ReadBinaryParallel on workers goroutines; text reads
// sequentially. stats may be nil.
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

// ReadCompiledFile reads a trace file with ReadFile and compiles it for
// replay.
func ReadCompiledFile(path string, workers int, stats blockio.Stats) (*Compiled, error) {
	t, err := ReadFile(path, workers, stats)
	if err != nil {
		return nil, err
	}
	return Compile(t)
}
