package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock ticks a fixed step per call, making span durations and event
// timestamps deterministic.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{
		t:    time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		step: step,
	}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(c.step)
	return now
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Errorf("Counter(a) returned a different handle")
	}
	g := r.Gauge("b")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	// Non-finite sets are dropped so snapshots always marshal.
	g.Set(nan())
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge after NaN set = %v, want 2.5", got)
	}
}

func nan() float64 { z := 0.0; return z / z }

func TestCounterConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
}

func TestSpanNesting(t *testing.T) {
	r := New()
	clock := newFakeClock(10 * time.Millisecond)
	r.SetClock(clock.Now)

	outer := r.Span("corpus/build")
	inner := outer.Child("train")
	if inner.Name() != "corpus/build/train" {
		t.Errorf("child span name = %q", inner.Name())
	}
	if d := inner.End(); d != 10*time.Millisecond {
		t.Errorf("inner duration = %v, want 10ms", d)
	}
	if d := outer.End(); d != 30*time.Millisecond {
		t.Errorf("outer duration = %v, want 30ms", d)
	}
	if sk := r.Sketch("corpus/build"); sk.Count() != 1 || sk.Sum() != 0.03 {
		t.Errorf("outer span sketch = (%d, %vs), want (1, 0.03s)", sk.Count(), sk.Sum())
	}
}

func TestEventLogDeterministic(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.SetClock(newFakeClock(0).Now)
	l.Emit("cell", Fields{"window": 3, "detector": "stide", "ms": 1.5})
	want := `{"ts":"2026-08-05T12:00:00.000Z","event":"cell","detector":"stide","ms":1.5,"window":3}` + "\n"
	if buf.String() != want {
		t.Errorf("event line:\n got %q\nwant %q", buf.String(), want)
	}
}

func TestEventLogReservedAndUnmarshalable(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.SetClock(newFakeClock(0).Now)
	l.Emit("x", Fields{"event": "spoof", "ts": "spoof", "ch": make(chan int)})
	line := buf.String()
	if strings.Contains(line, "spoof") {
		t.Errorf("reserved keys leaked into %q", line)
	}
	if !strings.Contains(line, `"ch":`) {
		t.Errorf("unmarshalable field dropped entirely: %q", line)
	}
}

// TestNilSafety exercises every entry point on nil receivers — the
// disabled path instrumented code relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.SetClock(time.Now)
	r.SetEventLog(nil)
	r.Event("e", Fields{"a": 1})
	r.Counter("c").Inc()
	r.Counter("c").Add(2)
	if r.Counter("c").Value() != 0 {
		t.Errorf("nil counter has a value")
	}
	r.Gauge("g").Set(1)
	if r.Gauge("g").Value() != 0 {
		t.Errorf("nil gauge has a value")
	}
	sp := r.Span("s")
	if sp.Child("x").End() != 0 || sp.End() != 0 || sp.Name() != "" {
		t.Errorf("nil span recorded")
	}
	var l *EventLog
	l.SetClock(time.Now)
	l.Emit("e", nil)
	snap := r.Snapshot()
	if snap.Schema != SchemaVersion || len(snap.Counters) != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Errorf("nil WriteSnapshot: %v", err)
	}
}

// TestSpanEndIdempotent is the regression test for the double-record bug:
// End used to record the elapsed duration on every call, so a defer
// sp.End() after an explicit End() double-counted the region. The span's
// sketch must hold exactly one observation of the elapsed seconds.
func TestSpanEndIdempotent(t *testing.T) {
	r := New()
	clock := newFakeClock(10 * time.Millisecond)
	r.SetClock(clock.Now)

	sp := r.Span("cell/stide")
	if d := sp.End(); d != 10*time.Millisecond {
		t.Fatalf("first End = %v, want 10ms", d)
	}
	if d := sp.End(); d != 0 {
		t.Errorf("second End = %v, want 0 (no-op)", d)
	}
	if sk := r.Sketch("cell/stide"); sk.Count() != 1 || sk.Sum() != 0.01 {
		t.Errorf("span sketch after double End = (%d, %vs), want (1, 0.01s)", sk.Count(), sk.Sum())
	}
}
