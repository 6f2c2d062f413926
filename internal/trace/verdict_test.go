package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dmexplore/internal/blockio"
)

// TestOneVerdictPerTraceFile reads a valid v2 trace and four damaged
// copies with every production reader at 1, 2 and 8 workers: the footer
// trailer cut by 8 bytes, the file cut mid-block, block 0's footer
// record count off by one, and 3 junk bytes after the header with the
// footer offsets shifted past them (both footers with their CRC
// recomputed). The valid file reads to the streaming reference's trace
// and compiled trace everywhere; every damaged file fails everywhere,
// naming the same check.
func TestOneVerdictPerTraceFile(t *testing.T) {
	tr := randomTrace("verdict", 20000, 11)
	var buf bytes.Buffer
	if err := writeBinaryV2(&buf, tr, 4096); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	want, err := ReadBinary(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	wantCompiled, err := Compile(want)
	if err != nil {
		t.Fatal(err)
	}
	_, idx, err := openV2(bytes.NewReader(valid), int64(len(valid)), 1)
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
	hl := blocks[0].Offset // the header's length
	junk := append(append(slices.Clone(valid[:hl]), "xyz"...), valid[hl:end]...)
	dir := t.TempDir()
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
		path := filepath.Join(dir, in.name)
		if err := os.WriteFile(path, in.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			read, readErr := ReadBinaryParallel(bytes.NewReader(in.data), int64(len(in.data)), workers, nil)
			file, fileErr := ReadFile(path, workers, nil)
			compiled, compiledErr := ReadCompiledFile(path, workers, nil)
			if in.want != "" {
				for reader, err := range map[string]error{"ReadBinaryParallel": readErr, "ReadFile": fileErr, "ReadCompiledFile": compiledErr} {
					if err == nil || !strings.Contains(err.Error(), in.want) {
						t.Errorf("%s, workers=%d: %s gave %v, want an error naming %q", in.name, workers, reader, err, in.want)
					}
				}
				continue
			}
			if readErr != nil || fileErr != nil || compiledErr != nil {
				t.Fatalf("workers=%d: %v / %v / %v", workers, readErr, fileErr, compiledErr)
			}
			if !reflect.DeepEqual(read, want) || !reflect.DeepEqual(file, want) {
				t.Fatalf("workers=%d: the valid file read to another trace", workers)
			}
			if !reflect.DeepEqual(compiled, wantCompiled) {
				t.Fatalf("workers=%d: the valid file compiled to another trace", workers)
			}
		}
	}
}
