package obs

import (
	"math"
	"sync"
)

// Quantile sketch: the registry's one distribution type, a fixed-memory
// streaming estimator for span durations, latencies, and detector
// responses alike. Durations are unbounded and span seven orders of
// magnitude between a 300 ns streaming push and a 10 s neural-net
// training, so the sketch buckets values on a geometric grid
// (DDSketch-style relative-error compression): bucket i covers
// (minValue·γ^(i-1), minValue·γ^i] with γ = (1+α)/(1-α), so any quantile
// estimate is within relative error α of a true sample value. Memory is
// fixed at construction — sketchBucketCount int64 slots (~17 KB at α = 1%)
// regardless of how many values are observed — and the observe path
// performs no allocations, the contract the online push hot path requires.

// SketchAlpha is the relative-accuracy target of every registry sketch: a
// quantile estimate q̂ satisfies |q̂ - q|/q <= SketchAlpha for any true
// sample quantile q inside the tracked range.
const SketchAlpha = 0.01

// sketchMinValue and sketchMaxValue bound the tracked magnitude range:
// [1 ns, ~32 years] when observing seconds, and comfortably past both ends
// of the response/inter-arrival scales. Values at or below sketchMinValue
// collapse into a dedicated low bucket (reported as the observed minimum);
// values above sketchMaxValue clamp into the top bucket.
const (
	sketchMinValue = 1e-9
	sketchMaxValue = 1e9
)

// Derived bucket geometry, computed once.
var (
	sketchGamma       = (1 + SketchAlpha) / (1 - SketchAlpha)
	sketchLogGammaInv = 1 / math.Log(sketchGamma)
	sketchLogMin      = math.Log(sketchMinValue)
	// sketchBucketCount covers (sketchMinValue, sketchMaxValue] on the γ
	// grid: ceil(ln(max/min)/ln γ) ≈ 2073 buckets at α = 1%.
	sketchBucketCount = int(math.Ceil((math.Log(sketchMaxValue) - sketchLogMin) * sketchLogGammaInv))
)

// Sketch is a fixed-memory streaming quantile estimator over positive
// values. Safe for concurrent use; all methods are no-ops (or zeros) on a
// nil receiver, matching the rest of the registry's disabled-path contract.
type Sketch struct {
	mu      sync.Mutex
	buckets []int64 // geometric buckets over (minValue, maxValue]
	low     int64   // observations <= sketchMinValue (including zero)
	count   int64
	sum     float64
	min     float64
	max     float64
}

// NewSketch returns an empty sketch. The bucket array is the sketch's only
// allocation; Observe never allocates.
func NewSketch() *Sketch {
	return &Sketch{buckets: make([]int64, sketchBucketCount)}
}

// Sketch returns the named quantile sketch, creating it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Sketch(name string) *Sketch {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	s := r.sketches[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.sketches[name]; s == nil {
		s = NewSketch()
		r.sketches[name] = s
	}
	return s
}

// sketchIndex maps a value to its bucket: ceil(log_γ(v/minValue)) clamped
// into the array, so bucket i covers (minValue·γ^(i-1), minValue·γ^i] and
// the bucket's representative value minValue·2γ^i/(γ+1) is within relative
// error α of every value in it.
func sketchIndex(v float64) int {
	idx := int(math.Ceil((math.Log(v) - sketchLogMin) * sketchLogGammaInv))
	if idx < 0 {
		idx = 0
	}
	if idx >= sketchBucketCount {
		idx = sketchBucketCount - 1
	}
	return idx
}

// Observe records one value. NaN and infinities are ignored so snapshots
// always marshal; values at or below sketchMinValue (zero included — a
// sub-nanosecond duration, an exactly-zero response) land in the low bucket
// and report as the observed minimum. The path allocates nothing.
func (s *Sketch) Observe(v float64) {
	if s == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.mu.Lock()
	s.observeLocked(v)
	s.mu.Unlock()
}

// ObserveAll records a batch of values under one lock acquisition — the
// per-response telemetry path of an instrumented Score call.
func (s *Sketch) ObserveAll(vs []float64) {
	if s == nil || len(vs) == 0 {
		return
	}
	s.mu.Lock()
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		s.observeLocked(v)
	}
	s.mu.Unlock()
}

func (s *Sketch) observeLocked(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	if v <= sketchMinValue {
		s.low++
		return
	}
	s.buckets[sketchIndex(v)]++
}

// Count returns the number of observations (0 on a nil receiver).
func (s *Sketch) Count() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Sum returns the running total of the observations (0 on a nil receiver).
// It takes only the lock, so per-call rates can read it without the bucket
// walk Stats performs.
func (s *Sketch) Sum() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Quantile returns the estimated q-quantile (q clamped to [0,1]) of the
// observed values, within relative error SketchAlpha of a true sample
// quantile for values inside the tracked range. Returns 0 before any
// observation and on a nil receiver.
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quantileLocked(q)
}

func (s *Sketch) quantileLocked(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// 1-based rank of the order statistic the quantile names.
	rank := int64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	// The extremes are tracked exactly, so the endpoint order statistics
	// answer exactly — including values the edge buckets clamped.
	if rank == 1 {
		return s.min
	}
	if rank >= s.count {
		return s.max
	}
	cum := s.low
	if cum >= rank {
		// The low bucket holds everything at or below sketchMinValue; the
		// observed minimum is the only honest representative.
		return s.min
	}
	for i, c := range s.buckets {
		cum += c
		if cum >= rank {
			est := sketchMinValue * 2 * math.Pow(sketchGamma, float64(i)) / (sketchGamma + 1)
			// Clamp into the observed range: edge-bucket clamping (values
			// outside the tracked magnitudes) must not report values the
			// stream never contained.
			if est < s.min {
				est = s.min
			}
			if est > s.max {
				est = s.max
			}
			return est
		}
	}
	return s.max
}

// Stats returns the sketch's serialized form under one lock, so the three
// quantiles are consistent with each other and with the count.
func (s *Sketch) Stats() SketchStats {
	if s == nil {
		return SketchStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SketchStats{
		Count: s.count,
		Sum:   s.sum,
	}
	if s.count > 0 {
		st.Min = s.min
		st.Max = s.max
		st.P50 = s.quantileLocked(0.50)
		st.P90 = s.quantileLocked(0.90)
		st.P99 = s.quantileLocked(0.99)
	}
	return st
}

// SketchStats is the serialized form of one Sketch: the summary quantiles a
// dashboard reads (p50/p90/p99), plus the exact count, sum, and extremes.
type SketchStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// SketchSnapshots returns the current stats of every registered sketch
// (nil when none, and on a nil registry) — what /runz embeds as the run's
// live quantile view.
func (r *Registry) SketchSnapshots() map[string]SketchStats {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	sketches := make(map[string]*Sketch, len(r.sketches))
	for k, v := range r.sketches {
		sketches[k] = v
	}
	r.mu.RUnlock()
	if len(sketches) == 0 {
		return nil
	}
	out := make(map[string]SketchStats, len(sketches))
	for name, s := range sketches {
		out[name] = s.Stats()
	}
	return out
}
