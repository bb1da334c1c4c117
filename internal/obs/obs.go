// Package obs is the repository's dependency-free observability layer: a
// metrics registry (counters, gauges, and fixed-memory quantile sketches —
// the one distribution type, which also holds every timing span's
// durations in seconds), nestable timing spans, a structured NDJSON event
// log, an append-only alert journal, and detector-health watchdog rules.
// The long batch runs that produce the paper's performance maps — corpus
// synthesis, dozens of detector trainings, the 8×14 evaluation grid —
// report where time goes and whether they are making progress through this
// package, and every run can emit a machine-readable metrics snapshot for
// benchmark-trajectory tracking.
//
// # Disabled path
//
// Every entry point is nil-safe: all methods on a nil *Registry, *Counter,
// *Gauge, *Sketch, *Span, and *EventLog are no-ops, so
// instrumented code paths carry a single pointer test and no allocation
// when observability is off. Instrumentation holds typed handles (obtained
// once from the registry) rather than doing name lookups on hot paths.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named collection of metrics plus an optional event log.
// All methods are safe for concurrent use and are no-ops on a nil receiver.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	sketches map[string]*Sketch
	events   *EventLog
	tracer   *Tracer

	now   func() time.Time
	start time.Time
}

// New returns an empty registry whose uptime starts now.
func New() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		sketches: make(map[string]*Sketch),
		now:      time.Now,
	}
	r.start = r.now()
	return r
}

// SetClock replaces the registry's time source (tests use a deterministic
// fake) and restarts the uptime epoch from the new clock.
func (r *Registry) SetClock(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
	r.start = now()
}

// SetEventLog attaches an event log; Event calls forward to it. A nil log
// detaches.
func (r *Registry) SetEventLog(l *EventLog) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = l
}

// SetTracer attaches an execution tracer; SpanTraced calls record into it.
// A nil tracer detaches, restoring the aggregate-only behavior.
func (r *Registry) SetTracer(t *Tracer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = t
}

// Tracer returns the attached execution tracer (nil when none, and on a nil
// registry). All tracer methods are nil-safe, so callers hold the result
// unconditionally.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tracer
}

// Event emits a structured event to the attached log, if any.
func (r *Registry) Event(event string, fields Fields) {
	if r == nil {
		return
	}
	r.mu.RLock()
	l := r.events
	r.mu.RUnlock()
	l.Emit(event, fields)
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// counterValue reads the named counter without creating it — the watchdog's
// read-only view: a rule watching a counter its subsystem never registered
// must stay dormant, not conjure the counter into every snapshot.
func (r *Registry) counterValue(name string) (value int64, exists bool) {
	if r == nil {
		return 0, false
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0, false
	}
	return c.Value(), true
}

// Counter is a monotonically increasing integer metric. Safe for
// concurrent use; no-op on a nil receiver.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value float metric. Safe for concurrent use; no-op on a
// nil receiver. Non-finite values are ignored so snapshots always marshal.
type Gauge struct {
	bits atomic.Uint64
	set  atomic.Bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the last value set (0 on a nil or never-set receiver).
func (g *Gauge) Value() float64 {
	if g == nil || !g.set.Load() {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
