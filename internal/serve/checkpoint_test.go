package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmexplore/internal/core"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
)

// journal encodes checkpoint lines the way the coordinator writes them.
func journal(lines ...ckptLine) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// openCheckpoint opens a coordinator over a state directory holding data
// as job j1's checkpoint.
func openCheckpoint(t *testing.T, data []byte) (*Coordinator, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-j1.jsonl"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return NewCoordinator(Options{StateDir: dir})
}

// TestSpecValidateRejectsUnshardable: a shard size below 1 would never
// end planShards, and more islands than configurations cannot each hold
// a distinct individual.
func TestSpecValidateRejectsUnshardable(t *testing.T) {
	spec := sweepSpec()
	spec.ShardSize = 0
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "shard size") {
		t.Errorf("shard size 0: got %v", err)
	}
	size := core.EasyportSpace().Size()
	spec = islandSpec(size + 1).withDefaults()
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "islands") {
		t.Errorf("%d islands over %d configurations: got %v", size+1, size, err)
	}
	if err := islandSpec(size).withDefaults().Validate(); err != nil {
		t.Errorf("%d islands over %d configurations: %v", size, size, err)
	}
	c, err := NewCoordinator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(islandSpec(size + 1)); err == nil {
		t.Error("Submit accepted more islands than configurations")
	}
}

// TestCheckpointSpecGetsSubmitChecks: a checkpointed spec passes through
// the defaults and checks Submit applies. A bare sweep spec gets the
// default shard size instead of looping on a zero one; a spec Submit
// would refuse fails the restart with the file and line.
func TestCheckpointSpecGetsSubmitChecks(t *testing.T) {
	c, err := openCheckpoint(t, []byte(`{"t":"spec","spec":{"strategy":"sweep"}}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	j := c.jobs["j1"]
	if j == nil || j.spec.ShardSize != 256 || len(j.shards) != 3 {
		t.Fatalf("bare sweep spec loaded as %+v", j)
	}
	for _, bad := range []string{
		`{"t":"spec","spec":{"strategy":"nsga2","islands":1000000000}}`,
		`{"t":"spec","spec":{"strategy":"sweep","workload":"nope"}}`,
		`{"t":"spec","spec":{"strategy":"sweep","hierarchy":"nope"}}`,
		`{"t":"spec","spec":{"strategy":"sweep","scale":-5}}`,
	} {
		if _, err := openCheckpoint(t, []byte(bad+"\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: got %v", bad, err)
		}
	}
}

// FuzzCheckpointReplay feeds arbitrary bytes to a restarting coordinator
// as a job's checkpoint journal: it must load the job or refuse the
// file, and never panic or hang, also when the loaded job's status and
// front are asked for.
func FuzzCheckpointReplay(f *testing.F) {
	sweep := sweepSpec()
	island := islandSpec(2)
	rec := telemetry.Record{Index: 3, Labels: []string{"none", "single"}, Shard: 1}
	m := &profile.Metrics{ConfigLabel: "c3", Accesses: 100, FootprintBytes: 4096, Cycles: 900, EnergyNJ: 1.5}
	f.Add(journal(
		ckptLine{T: "spec", Spec: &sweep},
		ckptLine{T: "result", Shard: 1, Record: &rec, Metrics: m},
		ckptLine{T: "shard_done", Shard: 1},
	))
	f.Add(journal(
		ckptLine{T: "spec", Spec: &island},
		ckptLine{T: "result", Shard: 2, Record: &rec, Metrics: m},
		ckptLine{T: "migration", Gen: 2, Imm: []int{3, 7}},
		ckptLine{T: "done"},
	))
	f.Add(journal(ckptLine{T: "spec", Spec: &sweep}, ckptLine{T: "failed", Err: "boom"}))
	f.Add([]byte(`{"t":"spec","spec":{"strategy":"sweep"}}` + "\n"))
	f.Add([]byte(`{"t":"spec","spec":{"strategy":"nsga2","islands":1000000000}}` + "\n"))
	f.Add([]byte(`{"t":"result","shard":1}` + "\n" + `{"t":"spec","spec":{"work`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := openCheckpoint(t, data)
		if err != nil {
			return
		}
		c.mu.Lock()
		for _, j := range c.jobs {
			c.status(j, true)
		}
		c.mu.Unlock()
		c.Close()
	})
}
