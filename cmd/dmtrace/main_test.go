package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmexplore/internal/trace"
)

func TestGenerateAndStats(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "easyport", "-scale", "5", "-stats"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"trace easyport", "allocs", "peak live", "dominant sizes", "74B"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestWriteAndReadBack(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"binary", "text"} {
		path := filepath.Join(dir, "trace."+format)
		var out bytes.Buffer
		if err := run([]string{"-workload", "synthetic", "-scale", "5", "-format", format, "-o", path}, &out); err != nil {
			t.Fatalf("%s write: %v", format, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		out.Reset()
		if err := run([]string{"-in", path, "-stats"}, &out); err != nil {
			t.Fatalf("%s read: %v", format, err)
		}
		if !strings.Contains(out.String(), "allocs") {
			t.Fatalf("%s stats:\n%s", format, out.String())
		}
	}
}

func TestBinaryDenserOnDisk(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "t.dmt")
	txt := filepath.Join(dir, "t.trace")
	var out bytes.Buffer
	if err := run([]string{"-workload", "vtc", "-scale", "10", "-o", bin}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workload", "vtc", "-scale", "10", "-format", "text", "-o", txt}, &out); err != nil {
		t.Fatal(err)
	}
	bi, _ := os.Stat(bin)
	ti, _ := os.Stat(txt)
	if bi.Size() >= ti.Size() {
		t.Fatalf("binary %d not denser than text %d", bi.Size(), ti.Size())
	}
}

// TestConvertRoundTripBitIdentical drives the CLI through every format
// conversion chain and pins that the events survive bit-identically:
// binary -> text -> binary must reproduce the original event sequence.
func TestConvertRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{
		"v2":   filepath.Join(dir, "a.dmt"),
		"text": filepath.Join(dir, "b.trace"),
		"back": filepath.Join(dir, "d.dmt"),
	}
	var out bytes.Buffer
	if err := run([]string{"-workload", "easyport", "-scale", "5", "-o", paths["v2"]}, &out); err != nil {
		t.Fatal(err)
	}
	chain := [][2]string{
		{paths["v2"], "text"}, {paths["text"], "v2"},
	}
	dsts := []string{paths["text"], paths["back"]}
	for i, step := range chain {
		if err := run([]string{"-in", step[0], "-format", step[1], "-o", dsts[i]}, &out); err != nil {
			t.Fatalf("convert %s -> %s: %v", step[0], step[1], err)
		}
	}
	want, err := trace.ReadFile(paths["v2"], 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dsts {
		got, err := trace.ReadFile(p, 4, nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got.Name != want.Name || len(got.Events) != len(want.Events) {
			t.Fatalf("%s: shape diverged (%d events vs %d)", p, len(got.Events), len(want.Events))
		}
		for i := range got.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("%s: event %d diverged: %+v vs %+v", p, i, got.Events[i], want.Events[i])
			}
		}
	}
}

func TestErrors(t *testing.T) {
	dst := filepath.Join(t.TempDir(), "x")
	cases := [][]string{
		{},                          // neither -workload nor -in
		{"-workload", "nope"},       // unknown workload
		{"-in", "/nonexistent.dmt"}, // missing file
		{"-workload", "easyport", "-scale", "5", "-format", "nope", "-o", dst},
		{"-workload", "easyport", "-scale", "5", "-format", "v1", "-o", dst}, // retired layout
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
