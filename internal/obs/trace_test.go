package obs

import (
	"sync"
	"testing"
	"time"
)

// manualTracer returns a tracer on a hand-advanced clock plus the advance
// function; the epoch is fixed, so span offsets are exact.
func manualTracer(capacity int) (*Tracer, func(time.Duration)) {
	cur := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr := NewTracer(capacity)
	tr.SetClock(func() time.Time { return cur })
	return tr, func(d time.Duration) { cur = cur.Add(d) }
}

func TestTracerSpanRecords(t *testing.T) {
	tr, advance := manualTracer(16)
	advance(10 * time.Millisecond)
	sp := tr.Start("cell/stide", "cell")
	sp.SetLane(3)
	sp.SetAttr("detector", "stide")
	sp.SetAttrInt("window", 5)
	advance(25 * time.Millisecond)
	sp.End()

	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("Snapshot returned %d spans, want 1", len(spans))
	}
	ev := spans[0]
	if ev.Name != "cell/stide" || ev.Cat != "cell" {
		t.Errorf("span name/cat = %q/%q", ev.Name, ev.Cat)
	}
	if ev.Lane != 3 {
		t.Errorf("lane = %d, want 3", ev.Lane)
	}
	if ev.Start != 10*time.Millisecond || ev.Dur != 25*time.Millisecond {
		t.Errorf("start/dur = %v/%v, want 10ms/25ms", ev.Start, ev.Dur)
	}
	if ev.ID == 0 || ev.Parent != 0 {
		t.Errorf("id/parent = %d/%d, want nonzero root", ev.ID, ev.Parent)
	}
	if ev.TraceID != tr.TraceID() {
		t.Errorf("span trace id %d != tracer's %d", ev.TraceID, tr.TraceID())
	}
	want := []TraceAttr{{"detector", "stide"}, {"window", "5"}}
	if len(ev.Attrs) != len(want) {
		t.Fatalf("attrs = %v, want %v", ev.Attrs, want)
	}
	for i, a := range want {
		if ev.Attrs[i] != a {
			t.Errorf("attr[%d] = %v, want %v", i, ev.Attrs[i], a)
		}
	}
}

func TestTracerChildInherits(t *testing.T) {
	tr, advance := manualTracer(16)
	parent := tr.Start("corpus/build", "corpus")
	parent.SetLane(LaneMain)
	child := parent.Child("corpus/build/train", "")
	other := parent.Child("corpus/build/index", "index")
	advance(time.Millisecond)
	child.End()
	other.End()
	parent.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	c, o, p := spans[0], spans[1], spans[2]
	if c.Parent != p.ID || o.Parent != p.ID {
		t.Errorf("children parents = %d,%d, want %d", c.Parent, o.Parent, p.ID)
	}
	if c.Lane != LaneMain || o.Lane != LaneMain {
		t.Errorf("children lanes = %d,%d, want inherited %d", c.Lane, o.Lane, LaneMain)
	}
	if c.Cat != "corpus" {
		t.Errorf("empty-category child cat = %q, want inherited %q", c.Cat, "corpus")
	}
	if o.Cat != "index" {
		t.Errorf("explicit-category child cat = %q, want %q", o.Cat, "index")
	}
}

func TestTracerInstant(t *testing.T) {
	tr, advance := manualTracer(16)
	advance(5 * time.Millisecond)
	tr.Instant("online/escalated", "alarm", TraceAttr{Key: "position", Value: "42"})
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d events, want 1", len(spans))
	}
	ev := spans[0]
	if !ev.Instant || ev.Dur != 0 {
		t.Errorf("instant=%v dur=%v, want true/0", ev.Instant, ev.Dur)
	}
	if ev.Start != 5*time.Millisecond {
		t.Errorf("start = %v, want 5ms", ev.Start)
	}
	if len(ev.Attrs) != 1 || ev.Attrs[0].Value != "42" {
		t.Errorf("attrs = %v", ev.Attrs)
	}
}

// TestTraceSpanEndIdempotent pins the End contract: the second End records
// nothing.
func TestTraceSpanEndIdempotent(t *testing.T) {
	tr, advance := manualTracer(16)
	sp := tr.Start("once", "test")
	advance(time.Millisecond)
	sp.End()
	advance(time.Millisecond)
	sp.End()
	if spans := tr.Snapshot(); len(spans) != 1 {
		t.Fatalf("double End recorded %d spans, want 1", len(spans))
	}
	if total, _ := tr.Stats(); total != 1 {
		t.Errorf("total = %d, want 1", total)
	}
}

// TestTracerWraparound pins the drop policy: a full ring overwrites the
// oldest spans and counts every overwrite, in Stats and in the trace/dropped
// registry counter.
func TestTracerWraparound(t *testing.T) {
	reg := New()
	tr, _ := manualTracer(4)
	tr.Instrument(reg)
	for i := 0; i < 6; i++ {
		tr.Instant("ev", "test", TraceAttr{Key: "i", Value: string(rune('0' + i))})
	}
	total, dropped := tr.Stats()
	if total != 6 || dropped != 2 {
		t.Fatalf("Stats = (%d, %d), want (6, 2)", total, dropped)
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// Oldest first, and the two oldest ("0", "1") are the ones dropped.
	for i, ev := range spans {
		if want := string(rune('0' + i + 2)); ev.Attrs[0].Value != want {
			t.Errorf("retained[%d] = %q, want %q", i, ev.Attrs[0].Value, want)
		}
	}
	if got := reg.Counter("trace/spans").Value(); got != 6 {
		t.Errorf("trace/spans = %d, want 6", got)
	}
	if got := reg.Counter("trace/dropped").Value(); got != 2 {
		t.Errorf("trace/dropped = %d, want 2", got)
	}
}

// TestTracerConcurrent drives the ring from many goroutines; the race
// detector is the real assertion, the counts are the sanity check.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := tr.Start("work", "test")
				sp.SetLane(lane)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	total, dropped := tr.Stats()
	if total != goroutines*each {
		t.Errorf("total = %d, want %d", total, goroutines*each)
	}
	if want := total - 64; dropped != want {
		t.Errorf("dropped = %d, want %d", dropped, want)
	}
	if spans := tr.Snapshot(); len(spans) != 64 {
		t.Errorf("retained %d spans, want 64 (full ring)", len(spans))
	}
}

func TestTracerSink(t *testing.T) {
	tr, advance := manualTracer(16)
	var got []SpanEvent
	tr.SetSink(func(ev SpanEvent) { got = append(got, ev) })
	sp := tr.Start("sinked", "test")
	advance(time.Millisecond)
	sp.End()
	tr.Instant("mark", "test")
	if len(got) != 2 {
		t.Fatalf("sink saw %d events, want 2", len(got))
	}
	if got[0].Name != "sinked" || got[1].Name != "mark" {
		t.Errorf("sink order = %q, %q", got[0].Name, got[1].Name)
	}
	tr.SetSink(nil)
	tr.Instant("quiet", "test")
	if len(got) != 2 {
		t.Errorf("removed sink still saw events (%d)", len(got))
	}
}

// TestTracerNil pins the disabled path: every method on a nil tracer (and on
// the nil spans it hands out) is a no-op.
func TestTracerNil(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("ignored", "test")
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	sp.SetLane(1)
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 2)
	sp.Child("c", "").End()
	sp.End()
	if sp.Lane() != LaneAsync {
		t.Errorf("nil span Lane = %d, want LaneAsync", sp.Lane())
	}
	tr.Instant("ignored", "test")
	tr.SetSink(func(SpanEvent) {})
	tr.SetClock(time.Now)
	tr.Instrument(New())
	if total, dropped := tr.Stats(); total != 0 || dropped != 0 {
		t.Errorf("nil Stats = (%d, %d)", total, dropped)
	}
	if tr.TraceID() != 0 || !tr.Epoch().IsZero() || tr.Snapshot() != nil {
		t.Error("nil tracer leaked state")
	}
}

// TestTracerNilZeroAlloc pins the cost of disabled tracing: starting and
// ending a span on a nil tracer allocates nothing.
func TestTracerNilZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("cell/stide", "cell")
		sp.SetLane(1)
		sp.SetAttr("detector", "stide")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil tracer span = %.1f allocs/op, want 0", allocs)
	}
}

// TestTracerEmptyName: an empty span name is refused rather than recorded as
// an unnameable track.
func TestTracerEmptyName(t *testing.T) {
	tr, _ := manualTracer(4)
	if sp := tr.Start("", "test"); sp != nil {
		t.Error("empty-name Start returned a live span")
	}
	tr.Instant("", "test")
	if total, _ := tr.Stats(); total != 0 {
		t.Errorf("empty-name events recorded (total=%d)", total)
	}
}

func TestTracerSetClockResetsIdentity(t *testing.T) {
	tr := NewTracer(4)
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr.SetClock(func() time.Time { return base })
	if got, want := tr.TraceID(), uint64(base.UnixNano()); got != want {
		t.Errorf("TraceID = %d, want %d (epoch-derived)", got, want)
	}
	if !tr.Epoch().Equal(base) {
		t.Errorf("Epoch = %v, want %v", tr.Epoch(), base)
	}
}

// TestRegistrySpanTraced covers the Registry-level wiring: with a tracer
// attached SpanTraced produces one trace span per timed span, and without
// one it reduces to Span.
func TestRegistrySpanTraced(t *testing.T) {
	reg := New()
	tr, _ := manualTracer(16)
	reg.SetTracer(tr)
	if reg.Tracer() != tr {
		t.Fatal("Tracer() did not return the attached tracer")
	}

	sp := reg.SpanTraced("cell/stide", "cell")
	sp.SetLane(2)
	sp.SetAttr("detector", "stide")
	child := sp.Child("score")
	child.End()
	sp.End()

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d trace spans, want 2", len(spans))
	}
	if spans[0].Name != "cell/stide/score" || spans[0].Parent != spans[1].ID {
		t.Errorf("child span = %+v, parent = %+v", spans[0], spans[1])
	}
	if spans[1].Lane != 2 {
		t.Errorf("lane = %d, want 2", spans[1].Lane)
	}
	// The span sketches recorded under both names too.
	snap := reg.Snapshot()
	if len(snap.Sketches) != 2 {
		t.Errorf("span sketches = %+v, want cell/stide and cell/stide/score", snap.Sketches)
	}

	reg.SetTracer(nil)
	plain := reg.SpanTraced("untraced", "cell")
	if plain.Trace() != nil {
		t.Error("SpanTraced without tracer still produced a trace span")
	}
	plain.End()
	if total, _ := tr.Stats(); total != 2 {
		t.Errorf("detached tracer recorded more spans (total=%d)", total)
	}
}
