package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// SchemaVersion identifies the snapshot JSON schema. Downstream tooling
// (benchmark-trajectory tracking, dashboards) keys on it; field names and
// ordering are pinned by a golden test and must only change with a version
// bump. v2 added the sketches section (streaming quantile estimates); v3
// removed the histograms and spans sections: every distribution, span
// durations included (in seconds), is a sketch.
const SchemaVersion = "adiv.obs/v3"

// Snapshot is the machine-readable state of a registry at one instant.
// encoding/json emits map keys in sorted order, so the serialized form is
// deterministic for a given registry state.
type Snapshot struct {
	Schema    string                 `json:"schema"`
	StartedAt string                 `json:"startedAt"`
	UptimeMs  float64                `json:"uptimeMs"`
	Counters  map[string]int64       `json:"counters"`
	Gauges    map[string]float64     `json:"gauges"`
	Sketches  map[string]SketchStats `json:"sketches"`
}

// Snapshot captures the registry's current state. A nil registry yields an
// empty (but schema-tagged) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Schema:   SchemaVersion,
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Sketches: map[string]SketchStats{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	now, start := r.now, r.start
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	r.mu.RUnlock()

	s.StartedAt = start.UTC().Format(time.RFC3339Nano)
	s.UptimeMs = durationMs(now().Sub(start))
	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	for name, st := range r.SketchSnapshots() {
		s.Sketches[name] = st
	}
	return s
}

// WriteSnapshot marshals the current snapshot as indented JSON to w.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling snapshot: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: writing snapshot: %w", err)
	}
	return nil
}

// WriteSnapshotFile writes the current snapshot to path, creating or
// truncating it.
func (r *Registry) WriteSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	werr := r.WriteSnapshot(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return fmt.Errorf("obs: closing snapshot file: %w", cerr)
	}
	return nil
}

// durationMs converts a duration to fractional milliseconds.
func durationMs(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}
