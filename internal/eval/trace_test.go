package eval

import (
	"strings"
	"sync"
	"testing"

	"adiv/internal/checkpoint"
	"adiv/internal/obs"
	"adiv/internal/seq"
)

// tracedRegistry returns a registry with a tracer attached, plus the tracer.
func tracedRegistry() (*obs.Registry, *obs.Tracer) {
	reg := obs.New()
	tr := obs.NewTracer(1 << 12)
	tr.Instrument(reg)
	reg.SetTracer(tr)
	return reg, tr
}

// attrOf returns the value of one span attribute ("" when absent).
func attrOf(ev obs.SpanEvent, key string) string {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestBuildMapCorpusTraces is the grid-tracing integration test: a traced
// build must emit one lane-stamped span per live cell and per row training,
// each carrying the (map, detector, window, size) attributes the timeline
// and family rollups key on.
func TestBuildMapCorpusTraces(t *testing.T) {
	reg, tr := tracedRegistry()
	const workers = 2
	opts := DefaultOptions()
	opts.Scheduler = NewScheduler(workers)
	opts.Scheduler.Instrument(reg)
	_, err := BuildMapCorpus("fake", gradedFactory(), seq.NewCorpus(make(seq.Stream, 100)),
		gradedPlacements(), 2, 8, opts, reg)
	if err != nil {
		t.Fatalf("BuildMapCorpus: %v", err)
	}

	byCat := map[string][]obs.SpanEvent{}
	for _, ev := range tr.Snapshot() {
		byCat[ev.Cat] = append(byCat[ev.Cat], ev)
	}
	const rows, cells = 7, 21 // windows 2-8, sizes {2,3,4}
	if got := len(byCat["train"]); got != rows {
		t.Errorf("train spans = %d, want %d", got, rows)
	}
	if got := len(byCat["cell"]); got != cells {
		t.Errorf("cell spans = %d, want %d", got, cells)
	}
	if got := len(byCat["map"]); got != 1 {
		t.Errorf("map spans = %d, want 1", got)
	}
	// Scoring inside each cell is traced separately (detector.Observed).
	if got := len(byCat["score"]); got != cells {
		t.Errorf("score spans = %d, want %d", got, cells)
	}
	for _, ev := range append(byCat["train"], byCat["cell"]...) {
		if ev.Lane < 0 || ev.Lane >= workers {
			t.Errorf("%s span %s lane = %d, want a worker lane in [0,%d)", ev.Cat, ev.Name, ev.Lane, workers)
		}
		if attrOf(ev, "detector") != "fake" || attrOf(ev, "map") != "fake" {
			t.Errorf("%s span attrs = %v, missing detector/map", ev.Cat, ev.Attrs)
		}
		if attrOf(ev, "window") == "" {
			t.Errorf("%s span missing window attr: %v", ev.Cat, ev.Attrs)
		}
	}
	for _, ev := range byCat["cell"] {
		if attrOf(ev, "size") == "" {
			t.Errorf("cell span missing size attr: %v", ev.Attrs)
		}
	}
	// One distribution per quantity: each live cell's duration lands in the
	// cell/<name> span sketch, and no cell_latency/ twin exists beside it.
	snaps := reg.SketchSnapshots()
	if got := snaps["cell/fake"].Count; got != cells {
		t.Errorf("cell/fake sketch count = %d, want %d", got, cells)
	}
	for name := range snaps {
		if strings.HasPrefix(name, "cell_latency/") {
			t.Errorf("duplicate cell-latency distribution %q", name)
		}
	}
	if got := reg.Counter("trace/spans").Value(); got == 0 {
		t.Error("trace/spans counter never incremented")
	}
	if dropped := reg.Counter("trace/dropped").Value(); dropped != 0 {
		t.Errorf("trace/dropped = %d on an under-capacity run", dropped)
	}
}

// TestBuildMapResumeTracesReplay pins the replay category: on a fully
// journaled resume every cell appears on the timeline as a "replay" span —
// and stays OUT of the cell/<name> sketch, whose rate must keep measuring
// real evaluation work only.
func TestBuildMapResumeTracesReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := checkpoint.Open(dir, evalTestFingerprint(), false)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Checkpoint = j
	if _, err := BuildMapCorpus("fake", gradedFactory(), seq.NewCorpus(make(seq.Stream, 100)),
		gradedPlacements(), 2, 8, opts, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := checkpoint.Open(dir, evalTestFingerprint(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	reg, tr := tracedRegistry()
	resumed := DefaultOptions()
	resumed.Checkpoint = j2
	if _, err := BuildMapCorpus("fake", gradedFactory(), seq.NewCorpus(make(seq.Stream, 100)),
		gradedPlacements(), 2, 8, resumed, reg); err != nil {
		t.Fatal(err)
	}

	replays, lives := 0, 0
	for _, ev := range tr.Snapshot() {
		switch ev.Cat {
		case "replay":
			replays++
			if attrOf(ev, "size") == "" || attrOf(ev, "window") == "" {
				t.Errorf("replay span missing coordinates: %v", ev.Attrs)
			}
		case "cell":
			lives++
		}
	}
	if replays != 21 || lives != 0 {
		t.Errorf("replay/cell spans = %d/%d, want 21/0 on a fully journaled resume", replays, lives)
	}
	if count := reg.Sketch("cell/fake").Count(); count != 0 {
		t.Errorf("cell/fake sketch recorded %d replays; replays must be trace-only", count)
	}
}

// TestSchedulerRunLane pins the lane contract: every task sees a lane in
// [0, Workers()), no two concurrently running tasks share one, and lanes are
// reused once released.
func TestSchedulerRunLane(t *testing.T) {
	const workers = 3
	sched := NewScheduler(workers)
	inUse := make([]bool, workers)
	seen := make([]int, 0, 60)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched.RunLane(func(lane int) {
				mu.Lock()
				if lane < 0 || lane >= workers {
					t.Errorf("lane %d out of [0,%d)", lane, workers)
				} else if inUse[lane] {
					t.Errorf("lane %d handed to two concurrent tasks", lane)
				} else {
					inUse[lane] = true
				}
				seen = append(seen, lane)
				mu.Unlock()
				mu.Lock()
				if lane >= 0 && lane < workers {
					inUse[lane] = false
				}
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	if len(seen) != 60 {
		t.Fatalf("ran %d tasks, want 60", len(seen))
	}
	distinct := map[int]bool{}
	for _, lane := range seen {
		distinct[lane] = true
	}
	if len(distinct) != workers {
		t.Errorf("lanes used = %v, want all %d reused across tasks", distinct, workers)
	}
}
