package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPresets(t *testing.T) {
	for _, preset := range []string{"kingsley", "lea", "firstfit"} {
		var out bytes.Buffer
		err := run([]string{"-workload", "easyport", "-scale", "5", "-preset", preset}, &out)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		s := out.String()
		for _, want := range []string{"config      " + preset, "accesses", "footprint", "energy", "mallocs"} {
			if !strings.Contains(s, want) {
				t.Fatalf("%s output missing %q:\n%s", preset, want, s)
			}
		}
	}
}

func TestJSONOutput(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "vtc", "-scale", "10", "-preset", "lea", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if m["Accesses"] == nil || m["PerLayer"] == nil {
		t.Fatalf("JSON missing fields: %v", m)
	}
}

func TestConfigFile(t *testing.T) {
	cfg := `{
	  "label": "from-file",
	  "fixed": [{"slot_bytes": 74, "match_lo": 74, "match_hi": 74,
	    "layer": "L1-scratchpad", "order": "lifo", "links": "single",
	    "growth": "chunk", "chunk_slots": 64, "max_bytes": 16384}],
	  "general": {"layer": "main-dram", "classes": "pow2:16:65536",
	    "fit": "first", "order": "lifo", "links": "single",
	    "split": "never", "coalesce": "never", "headers": "minimal",
	    "growth": "chunk", "chunk_bytes": 8192, "round_to_class": true}
	}`
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-workload", "easyport", "-scale", "5", "-config", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "from-file") {
		t.Fatalf("output:\n%s", out.String())
	}
	// The scratchpad must show traffic (74B pool mapped there).
	if !strings.Contains(out.String(), "L1-scratchpad") {
		t.Fatal("no scratchpad row")
	}
}

func TestLogEmission(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.log")
	var out bytes.Buffer
	err := run([]string{"-workload", "easyport", "-scale", "5", "-preset", "kingsley", "-log", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("empty log")
	}
}

func TestCacheFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "easyport", "-scale", "5", "-preset", "lea",
		"-cache", "4096:8:4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var bad bytes.Buffer
	if err := run([]string{"-workload", "easyport", "-scale", "5", "-preset", "lea",
		"-cache", "garbage"}, &bad); err == nil {
		t.Fatal("bad cache spec accepted")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                                 // no preset/config
		{"-preset", "nope"},                // unknown preset
		{"-preset", "lea", "-config", "x"}, // mutually exclusive
		{"-config", "/nonexistent.json"},   // missing file
		{"-workload", "nope", "-preset", "lea"},
		{"-hierarchy", "nope", "-preset", "lea"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestReplayTelemetryLine(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "easyport", "-scale", "5", "-preset", "lea"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replay      ") ||
		!strings.Contains(out.String(), "events/s") {
		t.Fatalf("replay telemetry line missing:\n%s", out.String())
	}
}

func TestMetricsAddr(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "easyport", "-scale", "5", "-preset", "lea",
		"-metrics-addr", "127.0.0.1:0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "/debug/vars") {
		t.Fatalf("metrics address not announced:\n%s", out.String())
	}
}

// TestLogEmitAndParseLog profiles with a raw log, then re-ingests it
// through the -parselog mode serially and in parallel and checks both
// summaries agree and report the block-framed ingest counters.
func TestLogEmitAndParseLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "run.log")
	var out bytes.Buffer
	err := run([]string{"-workload", "easyport", "-scale", "5", "-preset", "lea",
		"-log", logPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var records []string
	for _, workers := range []string{"1", "4"} {
		out.Reset()
		if err := run([]string{"-parselog", logPath, "-workers", workers}, &out); err != nil {
			t.Fatalf("workers=%s parselog: %v", workers, err)
		}
		s := out.String()
		if !strings.Contains(s, "blocks") {
			t.Fatalf("workers=%s parselog missing ingest counters:\n%s", workers, s)
		}
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "records") {
				records = append(records, line)
			}
		}
	}
	if len(records) != 2 || records[0] != records[1] {
		t.Fatalf("serial and parallel ingest summarize differently: %q", records)
	}
}

// TestParseLogIngestAtOneWorker pins the serial ingest line: a
// block-framed log parsed with -workers 1 reports its blocks, records
// and bytes like a parallel parse does.
func TestParseLogIngestAtOneWorker(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "run.log")
	var out bytes.Buffer
	if err := run([]string{"-workload", "easyport", "-scale", "5", "-preset", "lea", "-log", logPath}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-parselog", logPath, "-workers", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	var ingest string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "ingest") {
			ingest = line
		}
	}
	if !strings.Contains(ingest, "blocks") || strings.Contains(ingest, "0 blocks") {
		t.Fatalf("serial ingest line %q, want block counters:\n%s", ingest, out.String())
	}
}

// TestParseLogFooterCut: a log whose footer trailer lost its last 8
// bytes is refused at every worker count with an error naming the file.
func TestParseLogFooterCut(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "run.log")
	var out bytes.Buffer
	if err := run([]string{"-workload", "easyport", "-scale", "5", "-preset", "lea", "-log", logPath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "2"} {
		err := run([]string{"-parselog", logPath, "-workers", workers}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "missing footer magic") || !strings.Contains(err.Error(), logPath) {
			t.Fatalf("-workers %s: %v, want the footer-cut log %s refused", workers, err, logPath)
		}
	}
}

// TestBadLogFormatRejected feeds -parselog a headerless record stream
// (the retired v1 layout): it must be refused, not misparsed.
func TestBadLogFormatRejected(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "bare.log")
	if err := os.WriteFile(logPath, []byte{1 << 1, 0x80, 0x01, 4, 1<<1 | 1, 0x10, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run([]string{"-parselog", logPath, "-workers", workers}, &out); err == nil {
			t.Fatalf("workers=%s: headerless log accepted:\n%s", workers, out.String())
		}
	}
}
