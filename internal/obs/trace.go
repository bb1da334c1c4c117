package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Execution tracing: where the registry's span sketches answer "how much
// time did name X accumulate", the Tracer answers "what happened when" — every traced
// region becomes one SpanEvent with monotonic start/end timestamps, a
// span/parent ID pair, a category, an optional worker lane, and key=value
// attributes, recorded into a bounded ring. The ring is exported as Chrome
// trace_event JSON (Perfetto / chrome://tracing), served live as /tracez,
// and mined by `diagnose -trace` for critical-path and occupancy analysis.
//
// Tracing is opt-in and layered alongside the aggregate sketches: a Registry
// with no tracer attached keeps the exact pre-trace behavior, and a nil
// *Tracer (like every other handle in this package) is a no-op costing a
// pointer test and zero allocations.

// TraceSchemaVersion identifies the trace span schema. The /tracez document
// and the Chrome export's otherData carry it; diagnose -trace keys on it.
const TraceSchemaVersion = "adiv.trace/v1"

// DefaultTraceSpans is the ring capacity runflags installs for -trace: deep
// enough for a full paper-scale grid (4 maps × 112 cells plus trainings,
// corpus phases, and scoring spans) with generous headroom; when a run
// overflows it anyway, the ring drops oldest spans and counts the loss in
// trace/dropped rather than growing without bound.
const DefaultTraceSpans = 1 << 16

// Span lanes. Non-negative lanes are scheduler worker indices: the spans of
// one lane never overlap (a worker executes one task at a time), so the
// Chrome export can render each lane as a thread track and occupancy
// analysis can treat a lane's busy time as an interval union.
const (
	// LaneAsync marks a span with no worker identity (a singleflight DB
	// build, a detector Score inside a cell). These export as Chrome async
	// events: they may overlap freely and get their own tracks.
	LaneAsync = -1
	// LaneMain marks the run's main goroutine (corpus synthesis, figure
	// assembly) — sequential by construction, exported as the "main" thread.
	LaneMain = -2
)

// TraceAttr is one key=value span annotation.
type TraceAttr struct {
	Key   string
	Value string
}

// SpanEvent is one completed traced region (or instant marker) as stored in
// the tracer ring. Start is a monotonic offset from the tracer's epoch; the
// wall-clock epoch itself is carried by the Tracer so exports can anchor
// the timeline.
type SpanEvent struct {
	// TraceID identifies the tracer (and so the run) the span belongs to —
	// the merge key when per-shard traces are stitched together.
	TraceID uint64
	// ID is the span's unique (per-trace) identifier; Parent is the ID of
	// the enclosing span, 0 for roots.
	ID     uint64
	Parent uint64
	// Name is the span name, matching the sketch name at upgraded call
	// sites ("cell/stide", "corpus/build/train").
	Name string
	// Cat is the span category ("cell", "train", "replay", "corpus", ...);
	// Perfetto filters on it and the cost rollups group by it.
	Cat string
	// Lane is the worker lane (see LaneAsync/LaneMain).
	Lane int
	// Instant marks a zero-duration point event (an escalated alarm).
	Instant bool
	// Start is the monotonic offset from the tracer epoch; Dur the span's
	// duration (0 for instants).
	Start time.Duration
	Dur   time.Duration
	// Attrs are the span's key=value annotations (detector, window, size).
	Attrs []TraceAttr
}

// Tracer records completed spans into a bounded ring. All methods are safe
// for concurrent use and no-ops on a nil receiver; span recording takes one
// short mutex hold (no allocation beyond the span's own event), so tracing
// stays cheap even under the scheduler's full worker fan-out.
type Tracer struct {
	mu      sync.Mutex
	ring    []SpanEvent
	next    int
	total   int64
	dropped int64
	sink    func(SpanEvent)

	epoch   time.Time
	now     func() time.Time
	ids     atomic.Uint64
	traceID uint64

	// Telemetry handles; nil when uninstrumented.
	cSpans   *Counter
	cDropped *Counter
}

// NewTracer returns a tracer retaining the last capacity spans (capacity
// < 1 keeps DefaultTraceSpans). The trace ID derives from the wall-clock
// epoch, so concurrent shards of one logical run get distinct IDs.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultTraceSpans
	}
	t := &Tracer{
		ring: make([]SpanEvent, capacity),
		now:  time.Now,
	}
	t.epoch = t.now()
	t.traceID = uint64(t.epoch.UnixNano())
	return t
}

// SetClock replaces the tracer's time source (tests use a deterministic
// fake) and restarts the epoch — and with it the derived trace ID — from
// the new clock.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
	t.epoch = now()
	t.traceID = uint64(t.epoch.UnixNano())
}

// SetSink installs fn to receive every recorded span, called outside the
// ring lock. runflags uses it to tee spans into the NDJSON event log; nil
// removes the sink.
func (t *Tracer) SetSink(fn func(SpanEvent)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// Instrument records tracer telemetry into reg: the trace/spans counter
// (spans ever recorded) and the trace/dropped counter (spans overwritten by
// ring wraparound). A nil registry disables instrumentation.
func (t *Tracer) Instrument(reg *Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if reg == nil {
		t.cSpans, t.cDropped = nil, nil
		return
	}
	t.cSpans = reg.Counter("trace/spans")
	t.cDropped = reg.Counter("trace/dropped")
}

// TraceID returns the tracer's trace identifier (0 on a nil tracer).
func (t *Tracer) TraceID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// Epoch returns the wall-clock instant span offsets are measured from.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Stats returns how many spans were ever recorded and how many of those
// were dropped (overwritten) by ring wraparound.
func (t *Tracer) Stats() (total, dropped int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.dropped
}

// since returns the current monotonic offset from the epoch.
func (t *Tracer) since() time.Duration {
	t.mu.Lock()
	now, epoch := t.now, t.epoch
	t.mu.Unlock()
	return now().Sub(epoch)
}

// Start begins a root span. Returns nil (a no-op handle) on a nil tracer or
// empty name; the span reaches the ring only on End.
func (t *Tracer) Start(name, category string) *TraceSpan {
	if t == nil || name == "" {
		return nil
	}
	return &TraceSpan{
		t:     t,
		start: t.since(),
		ev: SpanEvent{
			ID:   t.ids.Add(1),
			Name: name,
			Cat:  category,
			Lane: LaneAsync,
		},
	}
}

// Instant records a zero-duration point event (an alarm escalation, a
// noteworthy state change) at the current time.
func (t *Tracer) Instant(name, category string, attrs ...TraceAttr) {
	if t == nil || name == "" {
		return
	}
	t.record(SpanEvent{
		ID:    t.ids.Add(1),
		Name:  name,
		Cat:   category,
		Lane:  LaneAsync,
		Start: t.since(),
		Attrs: attrs,
	}, true)
}

// record pushes one completed event into the ring, overwriting (and
// counting as dropped) the oldest retained span on wraparound.
func (t *Tracer) record(ev SpanEvent, instant bool) {
	ev.Instant = instant
	t.mu.Lock()
	ev.TraceID = t.traceID
	overwrote := t.total >= int64(len(t.ring))
	if overwrote {
		t.dropped++
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	sink := t.sink
	t.mu.Unlock()
	t.cSpans.Inc()
	if overwrote {
		t.cDropped.Inc()
	}
	if sink != nil {
		sink(ev)
	}
}

// Snapshot returns copies of the retained spans, oldest first.
func (t *Tracer) Snapshot() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	retained := int(t.total)
	start := 0
	if t.total >= int64(n) {
		retained = n
		start = t.next
	}
	out := make([]SpanEvent, 0, retained)
	for i := 0; i < retained; i++ {
		ev := t.ring[(start+i)%n]
		ev.Attrs = append([]TraceAttr(nil), ev.Attrs...)
		out = append(out, ev)
	}
	return out
}

// TraceSpan is one in-flight traced region. Like *Span it is single-
// goroutine state (the goroutine that started it mutates and ends it); the
// tracer's ring provides the cross-goroutine synchronization. All methods
// are no-ops on a nil receiver, and End is idempotent.
type TraceSpan struct {
	t     *Tracer
	start time.Duration
	ev    SpanEvent
	ended bool
}

// SetLane assigns the span's worker lane (see LaneAsync/LaneMain).
func (s *TraceSpan) SetLane(lane int) {
	if s == nil {
		return
	}
	s.ev.Lane = lane
}

// Lane returns the span's lane (LaneAsync on a nil span).
func (s *TraceSpan) Lane() int {
	if s == nil {
		return LaneAsync
	}
	return s.ev.Lane
}

// SetAttr annotates the span with one key=value pair.
func (s *TraceSpan) SetAttr(key, value string) {
	if s == nil || key == "" {
		return
	}
	s.ev.Attrs = append(s.ev.Attrs, TraceAttr{Key: key, Value: value})
}

// SetAttrInt annotates the span with one integer-valued attribute.
func (s *TraceSpan) SetAttrInt(key string, value int) {
	s.SetAttr(key, strconv.Itoa(value))
}

// Child starts a nested span: parent ID, lane, and (when category is empty)
// category are inherited.
func (s *TraceSpan) Child(name, category string) *TraceSpan {
	if s == nil {
		return nil
	}
	if category == "" {
		category = s.ev.Cat
	}
	c := s.t.Start(name, category)
	if c != nil {
		c.ev.Parent = s.ev.ID
		c.ev.Lane = s.ev.Lane
	}
	return c
}

// End completes the span and records it into the tracer ring. The second
// and later calls are no-ops, mirroring (*Span).End.
func (s *TraceSpan) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	ev := s.ev
	ev.Start = s.start
	if d := s.t.since() - s.start; d > 0 {
		ev.Dur = d
	}
	s.t.record(ev, false)
}
