package obs

import "time"

// Span is one timed region of a run. Spans are nestable: a child span's
// name is the parent's name plus "/child", so the snapshot reads as a flat
// call tree ("corpus/build", "corpus/build/train", ...). End observes the
// elapsed seconds into the registry's Sketch of the same name exactly
// once — later End calls are no-ops. Spans are not reusable; nil spans
// (from a nil registry) are no-ops throughout.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
	trace *TraceSpan
	ended bool
}

// Span starts a timed region. Returns nil (a no-op span) on a nil registry.
func (r *Registry) Span(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	now := r.now
	r.mu.RUnlock()
	return &Span{reg: r, name: name, start: now()}
}

// SpanTraced is Span's traced variant: alongside the aggregate sketch it
// records one SpanEvent (with the given category) into the registry's
// attached tracer, so upgrading a call site is a one-line change. With no
// tracer attached — or on a nil registry — it reduces exactly to Span, so
// untraced runs pay nothing new.
func (r *Registry) SpanTraced(name, category string) *Span {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	now, tracer := r.now, r.tracer
	r.mu.RUnlock()
	return &Span{reg: r, name: name, start: now(), trace: tracer.Start(name, category)}
}

// Child starts a nested span named parent/name. A traced parent's child is
// traced too, inheriting the parent's span ID, lane, and category.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.reg.Span(s.name + "/" + name)
	if c != nil && s.trace != nil {
		c.trace = s.trace.Child(s.name+"/"+name, "")
	}
	return c
}

// Name returns the span's full name ("" on a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetLane assigns the traced span's worker lane; a no-op without a tracer.
func (s *Span) SetLane(lane int) {
	if s == nil {
		return
	}
	s.trace.SetLane(lane)
}

// SetAttr annotates the traced span; a no-op without a tracer.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.trace.SetAttr(key, value)
}

// SetAttrInt annotates the traced span with an integer attribute.
func (s *Span) SetAttrInt(key string, value int) {
	if s == nil {
		return
	}
	s.trace.SetAttrInt(key, value)
}

// Trace returns the span's trace handle (nil without a tracer), for call
// sites that want to hang trace-only children off a timed span.
func (s *Span) Trace() *TraceSpan {
	if s == nil {
		return nil
	}
	return s.trace
}

// End observes the span's elapsed seconds into the registry's sketch of
// the span's name (and, when traced, records into the tracer ring) and
// returns the duration. Only the first call records: calling End twice
// used to double-count the region, so later calls are no-ops returning 0.
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	s.trace.End()
	s.reg.mu.RLock()
	now := s.reg.now
	s.reg.mu.RUnlock()
	d := now().Sub(s.start)
	s.reg.Sketch(s.name).Observe(d.Seconds())
	return d
}
