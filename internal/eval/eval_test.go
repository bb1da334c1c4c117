package eval

import (
	"errors"
	"testing"

	"adiv/internal/detector"
	"adiv/internal/inject"
	"adiv/internal/seq"
)

// fakeDetector returns canned responses: response r at positions covering
// the anomaly region per a fixed rule, 0 elsewhere. It lets the harness be
// tested independently of real detectors.
type fakeDetector struct {
	name      string
	window    int
	extent    int
	trained   bool
	trainErr  error
	scoreFunc func(test seq.Stream) []float64
}

func (f *fakeDetector) Name() string { return f.name }
func (f *fakeDetector) Window() int  { return f.window }
func (f *fakeDetector) Extent() int  { return f.extent }
func (f *fakeDetector) Train(seq.Stream) error {
	if f.trainErr != nil {
		return f.trainErr
	}
	f.trained = true
	return nil
}
func (f *fakeDetector) Score(test seq.Stream) ([]float64, error) {
	if err := detector.CheckScorable(f.trained, f.extent, test); err != nil {
		return nil, err
	}
	return f.scoreFunc(test), nil
}

func (*fakeDetector) NewStream() (detector.Stream, error) {
	return nil, errors.New("fakeDetector: batch only")
}

var _ detector.Detector = (*fakeDetector)(nil)

// constantScores returns n-extent+1 responses all equal to v.
func constantScores(v float64) func(test seq.Stream) []float64 {
	return func(test seq.Stream) []float64 {
		panicIf(len(test) == 0)
		return fill(make([]float64, len(test)), v)
	}
}

func fill(xs []float64, v float64) []float64 {
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func panicIf(b bool) {
	if b {
		panic("bad fake")
	}
}

func placementOf(streamLen, start, anomalyLen int) inject.Placement {
	return inject.Placement{
		Stream:     make(seq.Stream, streamLen),
		Start:      start,
		AnomalyLen: anomalyLen,
	}
}

func TestOutcomeString(t *testing.T) {
	tests := []struct {
		o    Outcome
		want string
	}{
		{Blind, "blind"},
		{Weak, "weak"},
		{Capable, "capable"},
		{Undefined, "undefined"},
		{Outcome(99), "undefined"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.o, got, tt.want)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("DefaultOptions invalid: %v", err)
	}
	bad := []Options{
		{CapableAt: 0, BlindBelow: 0},
		{CapableAt: 1.5, BlindBelow: 0},
		{CapableAt: 0.5, BlindBelow: 0.6},
		{CapableAt: 0.5, BlindBelow: -0.1},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", o)
		}
	}
}

func TestClassify(t *testing.T) {
	opts := DefaultOptions()
	tests := []struct {
		resp float64
		want Outcome
	}{
		{0, Blind},
		{1e-12, Blind},
		{0.5, Weak},
		{1 - 1e-6, Weak},
		{1, Capable},
		{1 - 1e-12, Capable}, // within the capable tolerance
	}
	for _, tt := range tests {
		if got := Classify(tt.resp, opts); got != tt.want {
			t.Errorf("Classify(%v) = %v, want %v", tt.resp, got, tt.want)
		}
	}
}

func TestSpanMax(t *testing.T) {
	p := placementOf(20, 10, 3)
	// Extent 4: span = window starts [7, 12].
	responses := make([]float64, 17)
	responses[6] = 1.0  // outside span
	responses[7] = 0.4  // inside
	responses[12] = 0.8 // inside (last)
	responses[13] = 1.0 // outside
	maxResp, ok := SpanMax(p, 4, responses)
	if !ok {
		t.Fatal("no span")
	}
	if maxResp != 0.8 {
		t.Errorf("SpanMax = %v, want 0.8", maxResp)
	}
}

func TestSpanMaxTruncatedResponses(t *testing.T) {
	p := placementOf(20, 18, 2)
	// Only 10 responses though the span extends to index 19: the clip must
	// not read out of range.
	responses := make([]float64, 10)
	if _, ok := SpanMax(p, 2, responses); ok {
		t.Errorf("SpanMax reported ok with responses ending before the span")
	}
}

func TestAssess(t *testing.T) {
	p := placementOf(30, 15, 2)
	det := &fakeDetector{name: "fake", window: 3, extent: 3, scoreFunc: constantScores(0.5)}
	if err := det.Train(nil); err != nil {
		t.Fatal(err)
	}
	a, err := Assess(det, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != Weak || a.MaxResponse != 0.5 || a.AnomalySize != 2 || a.Window != 3 {
		t.Errorf("assessment %+v", a)
	}
}

func TestAssessUntrained(t *testing.T) {
	p := placementOf(30, 15, 2)
	det := &fakeDetector{name: "fake", window: 3, extent: 3, scoreFunc: constantScores(0)}
	if _, err := Assess(det, p, DefaultOptions()); err == nil {
		t.Errorf("Assess with untrained detector succeeded")
	}
}

func TestAssessInvalidOptions(t *testing.T) {
	p := placementOf(30, 15, 2)
	det := &fakeDetector{name: "fake", window: 3, extent: 3, trained: true, scoreFunc: constantScores(0)}
	if _, err := Assess(det, p, Options{CapableAt: 2}); err == nil {
		t.Errorf("Assess with invalid options succeeded")
	}
}

func TestBuildMap(t *testing.T) {
	placements := map[int]inject.Placement{
		2: placementOf(50, 25, 2),
		3: placementOf(50, 25, 3),
	}
	// The fake family detects iff window >= anomaly size, mirroring Stide.
	factory := func(window int) (detector.Detector, error) {
		return &fakeDetector{
			name:   "fake",
			window: window,
			extent: window,
			scoreFunc: func(test seq.Stream) []float64 {
				n := seq.NumWindows(len(test), window)
				out := make([]float64, n)
				// Mark the window at the anomaly start (index 25) when it
				// fits: windows starting at 25 cover [25, 25+window).
				for size := 2; size <= 3; size++ {
					if window >= size && len(test) == 50 {
						out[25] = 1
					}
				}
				return out
			},
		}, nil
	}
	m, err := BuildMap("fake", factory, make(seq.Stream, 100), placements, 2, 5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.MinSize != 2 || m.MaxSize != 3 || m.MinWindow != 2 || m.MaxWindow != 5 {
		t.Errorf("grid %+v", m)
	}
	if got := len(m.Cells()); got != 8 {
		t.Errorf("%d cells, want 8", got)
	}
	for _, a := range m.Cells() {
		want := Capable // fake marks position 25 for every size once window >= 2
		if a.Outcome != want {
			t.Errorf("cell (%d,%d) = %v", a.AnomalySize, a.Window, a.Outcome)
		}
	}
}

func TestBuildMapPropagatesErrors(t *testing.T) {
	placements := map[int]inject.Placement{2: placementOf(50, 25, 2)}
	factory := func(window int) (detector.Detector, error) {
		if window == 4 {
			return nil, errors.New("boom")
		}
		return &fakeDetector{name: "fake", window: window, extent: window, scoreFunc: constantScores(0)}, nil
	}
	if _, err := BuildMap("fake", factory, make(seq.Stream, 10), placements, 2, 5, DefaultOptions()); err == nil {
		t.Errorf("BuildMap swallowed a factory error")
	}

	trainErr := func(window int) (detector.Detector, error) {
		return &fakeDetector{name: "fake", window: window, extent: window,
			trainErr: errors.New("train boom"), scoreFunc: constantScores(0)}, nil
	}
	if _, err := BuildMap("fake", trainErr, make(seq.Stream, 10), placements, 2, 3, DefaultOptions()); err == nil {
		t.Errorf("BuildMap swallowed a training error")
	}

	if _, err := BuildMap("fake", factory, nil, nil, 2, 3, DefaultOptions()); err == nil {
		t.Errorf("BuildMap with no placements succeeded")
	}
}

func TestMapAtUndefined(t *testing.T) {
	m, err := NewMap("x", 2, 9, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Outcome(1, 2); got != Undefined {
		t.Errorf("unrecorded cell outcome %v", got)
	}
	a := m.At(4, 4)
	if a.Outcome != Undefined || a.AnomalySize != 4 || a.Window != 4 {
		t.Errorf("At on empty map: %+v", a)
	}
}

func TestNewMapValidation(t *testing.T) {
	for _, args := range [][4]int{{0, 5, 2, 3}, {3, 2, 2, 3}, {2, 3, 0, 3}, {2, 3, 5, 4}} {
		if _, err := NewMap("x", args[0], args[1], args[2], args[3]); err == nil {
			t.Errorf("NewMap(%v) succeeded", args)
		}
	}
}

func TestCoversAtLeast(t *testing.T) {
	a, err := NewMap("a", 2, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMap("b", 2, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	set := func(m *Map, size, window int, o Outcome) {
		m.Set(Assessment{Detector: m.Detector, AnomalySize: size, Window: window, Outcome: o})
	}
	set(a, 2, 2, Capable)
	set(a, 2, 3, Capable)
	set(b, 2, 2, Capable)
	set(b, 2, 3, Weak)
	if !a.CoversAtLeast(b) {
		t.Errorf("a should cover b")
	}
	if b.CoversAtLeast(a) {
		t.Errorf("b should not cover a")
	}
	if got := a.CountOutcome(Capable); got != 2 {
		t.Errorf("CountOutcome = %d", got)
	}
	if got := a.DetectionRegion(); len(got) != 2 {
		t.Errorf("DetectionRegion = %v", got)
	}
}
