package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// buildGoldenRegistry populates a registry with one of everything under a
// deterministic clock, so the serialized snapshot is byte-stable.
func buildGoldenRegistry() *Registry {
	r := New()
	r.SetClock(newFakeClock(10 * time.Millisecond).Now)
	r.Counter("gen/symbols").Add(120000)
	r.Counter("eval/cells/stide").Add(112)
	r.Gauge("eval/throughput_sps/stide").Set(250000)
	r.Sketch("responses_q/stide").ObserveAll([]float64{0, 0, 0.5, 1})
	sp := r.Span("corpus/build")
	sp.Child("train").End()
	sp.End()
	r.Span("train/stide/dw02").End()
	r.Sketch("online/push_latency/stide").ObserveAll([]float64{1e-7, 2e-7, 2e-7, 4e-7})
	return r
}

// TestSnapshotGolden pins the metrics-snapshot JSON schema — stable field
// names and ordering — so downstream tooling (BENCH_*.json trajectory
// tracking, dashboards) can depend on it. Regenerate the golden file with
// UPDATE_GOLDEN=1 go test ./internal/obs after a deliberate schema change
// (which must also bump SchemaVersion).
func TestSnapshotGolden(t *testing.T) {
	r := buildGoldenRegistry()
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	golden := filepath.Join("testdata", "snapshot.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot schema drifted from golden file:\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestSnapshotValues(t *testing.T) {
	r := buildGoldenRegistry()
	s := r.Snapshot()
	if s.Schema != SchemaVersion {
		t.Errorf("schema = %q", s.Schema)
	}
	if s.Counters["gen/symbols"] != 120000 {
		t.Errorf("counter = %d", s.Counters["gen/symbols"])
	}
	if rs := s.Sketches["responses_q/stide"]; rs.Count != 4 || rs.Min != 0 || rs.Max != 1 || rs.Sum != 1.5 {
		t.Errorf("response sketch = %+v", rs)
	}
	if ss := s.Sketches["train/stide/dw02"]; ss.Count != 1 || ss.Sum != 0.01 || ss.P50 != 0.01 {
		t.Errorf("span sketch = %+v, want one 10ms observation in seconds", ss)
	}
	if s.Sketches["corpus/build/train"].Count != 1 {
		t.Errorf("nested span missing: %+v", s.Sketches)
	}
}

// TestSnapshotRoundTrip checks a snapshot survives JSON round-tripping —
// the contract -metrics-out consumers rely on.
func TestSnapshotRoundTrip(t *testing.T) {
	r := buildGoldenRegistry()
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Schema != SchemaVersion || back.Counters["gen/symbols"] != 120000 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestWriteSnapshotFile(t *testing.T) {
	r := buildGoldenRegistry()
	path := filepath.Join(t.TempDir(), "m.json")
	if err := r.WriteSnapshotFile(path); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("snapshot file is not valid JSON: %v", err)
	}
	if s.Schema != SchemaVersion {
		t.Errorf("schema = %q", s.Schema)
	}
}
