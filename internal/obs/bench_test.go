package obs

import (
	"io"
	"testing"
)

// The disabled (nil-registry) path must cost nothing measurable: these
// benchmarks pin the per-operation cost of the no-op handles that
// instrumented hot paths (Detector.Score, online Push) carry.

func BenchmarkCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := New().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span("x").End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span("x").End()
	}
}

// BenchmarkSketchObserve pins the quantile-sketch observe path: one mutex
// hold, a log, and an array increment — and zero allocations, the contract
// the online push hot path (which observes a latency per push) depends on.
func BenchmarkSketchObserve(b *testing.B) {
	s := New().Sketch("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(3.5e-7)
	}
}

func BenchmarkSketchObserveDisabled(b *testing.B) {
	var r *Registry
	s := r.Sketch("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(3.5e-7)
	}
}

// BenchmarkSketchObserveAll measures the batched path (one lock per batch)
// against BenchmarkSketchObservePerElement (one lock per value) on the same
// 1024-value batch — the delta is the cost the batch API removes.
func BenchmarkSketchObserveAll(b *testing.B) {
	s := New().Sketch("x")
	vs := make([]float64, 1024)
	for i := range vs {
		vs[i] = float64(i+1) * 1e-6
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObserveAll(vs)
	}
}

func BenchmarkSketchObservePerElement(b *testing.B) {
	s := New().Sketch("x")
	vs := make([]float64, 1024)
	for i := range vs {
		vs[i] = float64(i+1) * 1e-6
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vs {
			s.Observe(v)
		}
	}
}

// benchFields is a representative -progress cell event payload.
var benchFields = Fields{
	"detector": "stide",
	"window":   8,
	"size":     5,
	"outcome":  "capable",
	"ms":       11.25,
	"done":     int64(40),
	"total":    112,
}

// BenchmarkEventLogEmit pins the per-line cost of the NDJSON emitter. The
// line-assembly buffer is pooled (sync.Pool), so steady-state emission
// allocates only the per-field JSON encoding, not a fresh growing buffer
// per line.
func BenchmarkEventLogEmit(b *testing.B) {
	l := NewEventLog(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit("cell", benchFields)
	}
}

// BenchmarkEventLogEmitRing is the same emission with the /eventz
// ring-buffer sink attached — the tee must stay within a copy of the
// pooled-buffer path, not regress it.
func BenchmarkEventLogEmitRing(b *testing.B) {
	l := NewEventLog(NewEventRing(DefaultEventRingLines))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit("cell", benchFields)
	}
}

// BenchmarkTracerSpanDisabled pins the cost of tracing left off: a nil
// tracer's Start/SetLane/SetAttr/End must be pointer tests, zero allocation.
func BenchmarkTracerSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("cell/stide", "cell")
		sp.SetLane(1)
		sp.SetAttr("detector", "stide")
		sp.End()
	}
}

// BenchmarkTracerSpanEnabled is the live-recording cost: one span struct and
// its attrs per region, one short mutex hold on End.
func BenchmarkTracerSpanEnabled(b *testing.B) {
	tr := NewTracer(DefaultTraceSpans)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("cell/stide", "cell")
		sp.SetLane(1)
		sp.SetAttr("detector", "stide")
		sp.End()
	}
}

// BenchmarkSpanTracedUntraced pins the Registry-level upgrade contract: a
// SpanTraced call site on a registry WITHOUT a tracer must cost what Span
// costs, so upgrading call sites never taxes untraced runs.
func BenchmarkSpanTracedUntraced(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SpanTraced("x", "cell").End()
	}
}
