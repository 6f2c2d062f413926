package profile

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dmexplore/internal/blockio"
)

// TestOneVerdictPerLogFile parses a valid raw log and four damaged
// copies with ParseLogParallel at 1, 2 and 8 workers: the footer trailer
// cut by 8 bytes, the log cut mid-block, block 0's footer record count
// off by one, and 3 junk bytes after the header with the footer offsets
// shifted past them (both footers with their CRC recomputed). The valid
// log sums to ParseLog's summary everywhere; every damaged one fails
// everywhere, naming the same check.
func TestOneVerdictPerLogFile(t *testing.T) {
	defer func(w int64) { logFetchWindowBytes = w }(logFetchWindowBytes)
	logFetchWindowBytes = 64 << 10 // several fetch windows at every worker count
	valid, want := syntheticLog(t, 200_000)
	idx, err := openLog(bytes.NewReader(valid), int64(len(valid)), 1)
	if err != nil {
		t.Fatal(err)
	}
	blocks := idx.Blocks
	if len(blocks) < 4 {
		t.Fatalf("only %d blocks", len(blocks))
	}
	last, mid := blocks[len(blocks)-1], blocks[len(blocks)/2]
	end := last.Offset + last.DataLen() + 1 // past the end marker
	miscounted := slices.Clone(blocks)
	miscounted[0].Records++
	shifted := slices.Clone(blocks)
	for i := range shifted {
		shifted[i].Offset += 3
	}
	hl := len(logHeader)
	junk := append(append(slices.Clone(valid[:hl]), "xyz"...), valid[hl:end]...)
	for _, in := range []struct {
		name, want string
		data       []byte
	}{
		{"valid", "", valid},
		{"footer trailer cut", "missing footer magic", valid[:len(valid)-8]},
		{"cut mid-block", "missing footer magic", valid[:mid.Offset+mid.DataLen()/2]},
		{"block 0 count off by one", "header says", blockio.AppendFooter(slices.Clone(valid[:end]), miscounted)},
		{"junk after the header", "header ends at", blockio.AppendFooter(junk, shifted)},
	} {
		for _, workers := range []int{1, 2, 8} {
			got, err := ParseLogParallel(bytes.NewReader(in.data), int64(len(in.data)), workers, nil)
			if in.want != "" {
				if err == nil || !strings.Contains(err.Error(), in.want) {
					t.Errorf("%s, workers=%d: %v, want an error naming %q", in.name, workers, err, in.want)
				}
				continue
			}
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !SameSummary(got, want) {
				t.Fatalf("workers=%d: the valid log summed to another summary", workers)
			}
		}
	}
}
