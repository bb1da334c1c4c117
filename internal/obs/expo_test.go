package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// seededRegistry builds the fixed registry state behind the exposition
// golden: a deterministic clock, one counter, one gauge, one response
// sketch, and two span durations.
func seededRegistry() *Registry {
	r := New()
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tick := 0
	r.SetClock(func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * 250 * time.Millisecond)
	})
	r.Counter("eval/cells/stide").Add(112)
	r.Gauge("online/threshold").Set(0.95)
	r.Sketch("responses_q/stide").ObserveAll([]float64{0, 0.1, 0.3, 0.3, 0.8, 1, 1})
	for range 2 {
		r.Span("cell/stide").End()
	}
	return r
}

// TestWritePromGolden byte-compares the rendered exposition against the
// committed golden: the format is an external contract (Prometheus
// scrapers) and must only change deliberately.
func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := seededRegistry().WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWritePromNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm on nil registry: %v", err)
	}
	if !strings.Contains(buf.String(), "adiv_uptime_seconds 0") {
		t.Errorf("nil-registry exposition = %q", buf.String())
	}
}

func TestPromNameSanitizes(t *testing.T) {
	for in, want := range map[string]string{
		"cell/stide":       "adiv_cell_stide",
		"train/nn/dw08":    "adiv_train_nn_dw08",
		"weird-name.x y":   "adiv_weird_name_x_y",
		"UpperCase":        "adiv_UpperCase",
		"throughput_sps/a": "adiv_throughput_sps_a",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
