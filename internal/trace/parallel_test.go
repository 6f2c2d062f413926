package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmallFileSplitsAcrossWorkers: a v2 file smaller than one fetch
// window still splits into a window per worker — at two workers it
// forms at least two groups, at one worker one — and a two-worker
// ReadCompiledFile of it compiles exactly what a serial read does.
func TestSmallFileSplitsAcrossWorkers(t *testing.T) {
	tr := benchTrace(60_000)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	size := int64(len(data))
	if size >= fetchWindowBytes {
		t.Fatalf("the %d-byte file fills a %d-byte fetch window", size, fetchWindowBytes)
	}
	_, idx, err := openV2(bytes.NewReader(data), size, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Groups) < 2 {
		t.Fatalf("%d blocks form %d fetch groups at two workers, want at least 2", len(idx.Blocks), len(idx.Groups))
	}
	if _, idx, err = openV2(bytes.NewReader(data), size, 1); err != nil {
		t.Fatal(err)
	}
	if len(idx.Groups) != 1 {
		t.Fatalf("one worker reads %d fetch groups, want 1", len(idx.Groups))
	}

	path := filepath.Join(t.TempDir(), "small.v2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompiledFile(path, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a two-worker ReadCompiledFile compiles another trace than a serial read")
	}
}
