// Package compose provides detector decorators: wrappers that transform a
// detector's response stream while preserving the detector interface, so
// post-processing stages can be charted on the same performance maps as
// the detectors themselves.
//
// Two stages from the literature are provided. Smoothed applies Stide's
// locality-frame-count idea generically — each response becomes the mean
// of the trailing frame — which suppresses isolated blips and rewards
// bursts (the paper's evaluation deliberately bypasses this stage, Section
// 5.5; here it is an ablation). Quantized snaps responses at or above a
// floor to exactly 1, the "detection threshold becomes critical" knob that
// turns graded detectors (neural network, Markov) into binary ones.
package compose

import (
	"fmt"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/seq"
)

// Smoothed decorates a detector with trailing-frame mean smoothing.
type Smoothed struct {
	inner detector.Detector
	frame int
}

var _ detector.Detector = (*Smoothed)(nil)

// NewSmoothed wraps a detector with a locality frame of the given size.
func NewSmoothed(inner detector.Detector, frame int) (*Smoothed, error) {
	if inner == nil {
		return nil, fmt.Errorf("compose: nil inner detector")
	}
	if frame < 1 {
		return nil, fmt.Errorf("compose: non-positive frame %d", frame)
	}
	return &Smoothed{inner: inner, frame: frame}, nil
}

// Name implements detector.Detector.
func (d *Smoothed) Name() string { return d.inner.Name() + "+lfc" }

// Window implements detector.Detector.
func (d *Smoothed) Window() int { return d.inner.Window() }

// Extent implements detector.Detector. Smoothing is causal (trailing
// frame), so each smoothed response still covers the inner extent.
func (d *Smoothed) Extent() int { return d.inner.Extent() }

// Frame returns the locality frame size.
func (d *Smoothed) Frame() int { return d.frame }

// Train implements detector.Detector.
func (d *Smoothed) Train(train seq.Stream) error { return d.inner.Train(train) }

// Score implements detector.Detector: each response is the mean of the
// inner detector's responses over the trailing frame (clipped at the
// stream start).
func (d *Smoothed) Score(test seq.Stream) ([]float64, error) {
	return scoreStaged(d.inner, test, d.newStage())
}

// NewStream implements detector.Detector: the inner stream through the
// same trailing-frame stage.
func (d *Smoothed) NewStream() (detector.Stream, error) {
	return newStagedStream(d.inner, d.newStage())
}

func (d *Smoothed) newStage() stage {
	return &frameMean{ring: make([]float64, d.frame)}
}

// frameMean is Smoothed's stage: the running sum of the trailing frame of
// inner responses, kept in a ring of the last frame responses.
type frameMean struct {
	ring []float64
	n    int
	sum  float64
}

func (m *frameMean) next(r float64) float64 {
	frame := len(m.ring)
	slot := m.n % frame
	m.sum += r
	if m.n >= frame {
		m.sum -= m.ring[slot]
	}
	m.ring[slot] = r
	m.n++
	return m.sum / float64(min(m.n, frame))
}

func (m *frameMean) reset() { m.n, m.sum = 0, 0 }

// Quantized decorates a detector by snapping responses at or above a floor
// to exactly 1, leaving others untouched.
type Quantized struct {
	inner detector.Detector
	floor float64
}

var _ detector.Detector = (*Quantized)(nil)

// NewQuantized wraps a detector with a maximal-response floor in (0,1].
func NewQuantized(inner detector.Detector, floor float64) (*Quantized, error) {
	if inner == nil {
		return nil, fmt.Errorf("compose: nil inner detector")
	}
	if floor <= 0 || floor > 1 {
		return nil, fmt.Errorf("compose: floor %v outside (0,1]", floor)
	}
	return &Quantized{inner: inner, floor: floor}, nil
}

// Name implements detector.Detector.
func (d *Quantized) Name() string { return d.inner.Name() + "@1" }

// Window implements detector.Detector.
func (d *Quantized) Window() int { return d.inner.Window() }

// Extent implements detector.Detector.
func (d *Quantized) Extent() int { return d.inner.Extent() }

// Floor returns the quantization floor.
func (d *Quantized) Floor() float64 { return d.floor }

// Train implements detector.Detector.
func (d *Quantized) Train(train seq.Stream) error { return d.inner.Train(train) }

// Score implements detector.Detector.
func (d *Quantized) Score(test seq.Stream) ([]float64, error) {
	return scoreStaged(d.inner, test, snap(d.floor))
}

// NewStream implements detector.Detector: the inner stream through the
// same snap.
func (d *Quantized) NewStream() (detector.Stream, error) {
	return newStagedStream(d.inner, snap(d.floor))
}

// snap is Quantized's stage: responses at or above the floor become 1.
type snap float64

func (f snap) next(r float64) float64 {
	if r >= float64(f) {
		return 1
	}
	return r
}

func (snap) reset() {}

// stage is a decorator's per-response transform. Batch Score and the
// decorator's stream both pass every inner response through it in order,
// so the two agree by construction.
type stage interface {
	next(r float64) float64
	reset()
}

// scoreStaged applies st to inner's batch responses in place.
func scoreStaged(inner detector.Detector, test seq.Stream, st stage) ([]float64, error) {
	out, err := inner.Score(test)
	if err != nil {
		return nil, err
	}
	for i, r := range out {
		out[i] = st.next(r)
	}
	return out, nil
}

func newStagedStream(inner detector.Detector, st stage) (detector.Stream, error) {
	s, err := inner.NewStream()
	if err != nil {
		return nil, err
	}
	return &stagedStream{inner: s, st: st}, nil
}

// stagedStream is a decorator's stream: the responses inner appends, each
// through the stage in order.
type stagedStream struct {
	inner detector.Stream
	st    stage
}

func (s *stagedStream) Push(syms []alphabet.Symbol, dst []float64) ([]float64, error) {
	n := len(dst)
	dst, err := s.inner.Push(syms, dst)
	for i := n; i < len(dst); i++ {
		dst[i] = s.st.next(dst[i])
	}
	return dst, err
}

func (s *stagedStream) Reset() {
	s.inner.Reset()
	s.st.reset()
}
