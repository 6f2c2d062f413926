package blockio

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// DefaultFetchWindow is how many contiguous file bytes a parallel reader
// fetches per ReadAt. Coalescing adjacent blocks into one request keeps
// the request count low (it is the dominant cost on high-latency
// storage) while staying small enough to spread a file across workers.
const DefaultFetchWindow = 4 << 20

// fetchWindow returns the fetch window for reading a file of size bytes
// on workers goroutines: at most limit, and no more than the file's
// share per worker, so a file under workers×limit bytes still splits
// into a window per worker. Larger files keep limit.
func fetchWindow(limit, size int64, workers int) int64 {
	if workers <= 1 {
		return limit
	}
	return min(limit, (size+int64(workers)-1)/int64(workers))
}

// Group is a contiguous run of blocks that one worker fetches with a
// single ReadAt and decodes.
type Group struct {
	Off, Len    int64 // file range covering every block in the group
	First, Last int   // block index range [First, Last]
	FirstRecord int64 // records in all earlier groups
}

// groupBlocks coalesces a footer index into fetch groups of at most
// window bytes (a block larger than window gets a group of its own) and
// returns them with the total record count. The blocks must be
// contiguous, as every Writer lays them out: a gap in the index is an
// error.
func groupBlocks(blocks []Block, window int64) ([]Group, int64, error) {
	var groups []Group
	var total int64
	for i := 0; i < len(blocks); {
		g := Group{Off: blocks[i].Offset, First: i, FirstRecord: total}
		end := blocks[i].Offset
		for i < len(blocks) {
			if blocks[i].Offset != end {
				return nil, 0, fmt.Errorf("blockio: footer index gap at block %d (offset %d, expected %d)", i, blocks[i].Offset, end)
			}
			blkEnd := end + blocks[i].DataLen()
			if blkEnd-g.Off > window && i > g.First {
				break
			}
			end = blkEnd
			total += blocks[i].Records
			g.Last = i
			i++
		}
		g.Len = end - g.Off
		groups = append(groups, g)
	}
	return groups, total, nil
}

// windows recycles fetch windows across fanOut calls: ingesting a run of
// logs reuses the same few buffers instead of allocating one per worker
// per file.
var windows = sync.Pool{New: func() any { return new([]byte) }}

// fanOut fetches every group into a reusable window with one ReadAt and
// hands it to decode, on up to workers goroutines; worker is the index
// (0..workers-1) of the goroutine running the call, for per-worker
// accumulators. The first error stops the dispatch: every worker
// finishes the group in hand and takes no other, and fanOut returns the
// error of the lowest-numbered group that failed.
func fanOut(ra io.ReaderAt, groups []Group, workers int, decode func(worker, group int, window []byte) error) error {
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers < 1 {
		return nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	type failure struct {
		group int
		err   error
	}
	fails := make([]failure, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := windows.Get().(*[]byte)
			defer windows.Put(buf)
			for !failed.Load() {
				gi := int(next.Add(1) - 1)
				if gi >= len(groups) {
					return
				}
				g := groups[gi]
				if int64(cap(*buf)) < g.Len {
					*buf = make([]byte, g.Len)
				}
				window := (*buf)[:g.Len]
				var err error
				if _, rerr := ra.ReadAt(window, g.Off); rerr != nil {
					err = fmt.Errorf("blockio: reading blocks %d-%d (offset %d): %w", g.First, g.Last, g.Off, unexpectedEOF(rerr))
				} else {
					err = decode(w, gi, window)
				}
				if err != nil {
					fails[w] = failure{gi, err}
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var first *failure
	for w := range fails {
		if f := &fails[w]; f.err != nil && (first == nil || f.group < first.group) {
			first = f
		}
	}
	if first != nil {
		return first.err
	}
	return nil
}

// Index is a block-framed file opened through its footer index, split
// into fetch groups for a worker count. It is the one way production
// code reads a v2 trace or log, at any worker count: whatever the count,
// a file reads to the same records or fails the same checks.
type Index struct {
	ra      io.ReaderAt
	workers int
	Blocks  []Block
	Groups  []Group
	Records int64 // records the footer claims across every block
}

// OpenIndex reads the footer index of a block-framed file of size bytes
// whose format header ends at headerEnd, and groups its blocks into
// fetch windows of at most fetchWindow(window, size, workers) bytes;
// workers below 1 read as 1. The index must describe the whole file:
// the blocks (or, in an empty file, the end marker) start where the
// header ends and run contiguously up to the end marker right before
// the footer.
func OpenIndex(ra io.ReaderAt, size, headerEnd, window int64, workers int) (*Index, error) {
	blocks, end, err := readIndex(ra, size)
	if err != nil {
		return nil, err
	}
	if len(blocks) > 0 {
		end = blocks[0].Offset
	}
	if end != headerEnd {
		return nil, fmt.Errorf("blockio: data starts at offset %d, header ends at %d", end, headerEnd)
	}
	groups, total, err := groupBlocks(blocks, fetchWindow(window, size, workers))
	if err != nil {
		return nil, err
	}
	return &Index{ra: ra, workers: max(workers, 1), Blocks: blocks, Groups: groups, Records: total}, nil
}

// Decode fetches the file's groups on up to the opened worker count of
// goroutines (fanOut), parses each block, checks that its header's
// record count matches the footer's, and hands it to fn: worker indexes
// the calling goroutine (below the worker count), first is the file-wide
// index of the block's first record, and fn must find exactly records
// records in payload. stats may be nil.
func (x *Index) Decode(stats Stats, fn func(worker, block int, first, records int64, payload []byte) error) error {
	return fanOut(x.ra, x.Groups, x.workers, func(w, gi int, window []byte) error {
		g := x.Groups[gi]
		first := g.FirstRecord
		for b := g.First; b <= g.Last; b++ {
			records, payload, rest, err := parseBlock(window, stats)
			if err != nil {
				return fmt.Errorf("blockio: block %d (offset %d): %w", b, x.Blocks[b].Offset, err)
			}
			if records != x.Blocks[b].Records {
				return fmt.Errorf("blockio: block %d: header says %d records, footer says %d", b, records, x.Blocks[b].Records)
			}
			if err := fn(w, b, first, records, payload); err != nil {
				return err
			}
			first += records
			window = rest
		}
		return nil
	})
}
