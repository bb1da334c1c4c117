package compose

import (
	"errors"
	"math"
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/detector/stide"
	"adiv/internal/seq"
)

func mk(vals ...int) seq.Stream {
	s := make(seq.Stream, len(vals))
	for i, v := range vals {
		s[i] = alphabet.Symbol(v)
	}
	return s
}

// scripted replays canned responses.
type scripted struct {
	responses []float64
	trained   bool
}

func (s *scripted) Name() string           { return "scripted" }
func (s *scripted) Window() int            { return 2 }
func (s *scripted) Extent() int            { return 2 }
func (s *scripted) Train(seq.Stream) error { s.trained = true; return nil }
func (s *scripted) Score(test seq.Stream) ([]float64, error) {
	if err := detector.CheckScorable(s.trained, 2, test); err != nil {
		return nil, err
	}
	out := make([]float64, len(test)-1)
	copy(out, s.responses)
	return out, nil
}

func (s *scripted) NewStream() (detector.Stream, error) {
	if !s.trained {
		return nil, detector.ErrNotTrained
	}
	return nil, errors.New("scripted: batch only")
}

var _ detector.Detector = (*scripted)(nil)

func TestNewSmoothedValidation(t *testing.T) {
	inner := &scripted{}
	if _, err := NewSmoothed(nil, 3); err == nil {
		t.Errorf("nil inner accepted")
	}
	if _, err := NewSmoothed(inner, 0); err == nil {
		t.Errorf("frame 0 accepted")
	}
	d, err := NewSmoothed(inner, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "scripted+lfc" || d.Window() != 2 || d.Extent() != 2 || d.Frame() != 3 {
		t.Errorf("metadata %s %d %d %d", d.Name(), d.Window(), d.Extent(), d.Frame())
	}
}

func TestSmoothedMeans(t *testing.T) {
	inner := &scripted{responses: []float64{0, 1, 1, 0, 0, 0, 1}}
	d, err := NewSmoothed(inner, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.Score(make(seq.Stream, 8))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 2.0 / 3, 2.0 / 3, 1.0 / 3, 0, 1.0 / 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("smoothed[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSmoothedSuppressesIsolatedMismatch(t *testing.T) {
	// An isolated maximal response is diluted; a burst saturates — the
	// locality-frame-count rationale.
	isolated := make([]float64, 20)
	isolated[10] = 1
	burst := make([]float64, 20)
	for i := 8; i < 14; i++ {
		burst[i] = 1
	}
	score := func(responses []float64) float64 {
		d, err := NewSmoothed(&scripted{responses: responses}, 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Train(nil); err != nil {
			t.Fatal(err)
		}
		out, err := d.Score(make(seq.Stream, 21))
		if err != nil {
			t.Fatal(err)
		}
		maxResp := 0.0
		for _, r := range out {
			if r > maxResp {
				maxResp = r
			}
		}
		return maxResp
	}
	if iso, bst := score(isolated), score(burst); iso >= bst || bst != 1 {
		t.Errorf("isolated max %v, burst max %v; want isolated < burst = 1", iso, bst)
	}
}

func TestQuantized(t *testing.T) {
	inner := &scripted{responses: []float64{0, 0.5, 0.95, 0.99, 1}}
	if _, err := NewQuantized(nil, 0.9); err == nil {
		t.Errorf("nil inner accepted")
	}
	for _, floor := range []float64{0, 1.5, -0.2} {
		if _, err := NewQuantized(inner, floor); err == nil {
			t.Errorf("floor %v accepted", floor)
		}
	}
	d, err := NewQuantized(inner, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "scripted@1" || d.Floor() != 0.99 {
		t.Errorf("metadata %s %v", d.Name(), d.Floor())
	}
	if err := d.Train(nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.Score(make(seq.Stream, 6))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 0.95, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("quantized[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSmoothedWithRealStide: end to end, smoothing a real Stide turns an
// isolated foreign window into a sub-maximal response while a foreign
// burst stays maximal.
func TestSmoothedWithRealStide(t *testing.T) {
	inner, err := stide.New(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewSmoothed(inner, 4)
	if err != nil {
		t.Fatal(err)
	}
	var train seq.Stream
	for i := 0; i < 50; i++ {
		train = append(train, 0, 1, 2, 3)
	}
	if err := d.Train(train); err != nil {
		t.Fatal(err)
	}
	// One isolated foreign pair (3,1) inside otherwise-normal data.
	responses, err := d.Score(mk(0, 1, 2, 3, 1, 2, 3, 0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range responses {
		if r >= 1 {
			t.Errorf("smoothed response[%d] = %v; isolated mismatch should not saturate", i, r)
		}
	}
	// A wall of foreign pairs saturates the frame.
	responses, err = d.Score(mk(3, 1, 3, 1, 3, 1, 3, 1, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	saturated := false
	for _, r := range responses {
		if r == 1 {
			saturated = true
		}
	}
	if !saturated {
		t.Errorf("foreign burst never saturated the frame: %v", responses)
	}
}

func TestDecoratorsPropagateErrors(t *testing.T) {
	inner := &scripted{} // untrained
	d, err := NewSmoothed(inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Score(mk(0, 1, 2)); err == nil {
		t.Errorf("smoothed score of untrained inner succeeded")
	}
	q, err := NewQuantized(inner, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Score(mk(0, 1, 2)); err == nil {
		t.Errorf("quantized score of untrained inner succeeded")
	}
	for _, dec := range []detector.Detector{d, q} {
		if _, err := dec.NewStream(); !errors.Is(err, detector.ErrNotTrained) {
			t.Errorf("%s stream of untrained inner: %v, want ErrNotTrained", dec.Name(), err)
		}
	}
}
