package ensemble

import (
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/eval"
	"adiv/internal/inject"
	"adiv/internal/seq"
)

// scripted is a canned detector for combination tests.
type scripted struct {
	name      string
	window    int
	extent    int
	trained   bool
	responses []float64
}

func (s *scripted) Name() string           { return s.name }
func (s *scripted) Window() int            { return s.window }
func (s *scripted) Extent() int            { return s.extent }
func (s *scripted) Train(seq.Stream) error { s.trained = true; return nil }
func (s *scripted) Score(test seq.Stream) ([]float64, error) {
	if err := detector.CheckScorable(s.trained, s.extent, test); err != nil {
		return nil, err
	}
	out := make([]float64, len(test)-s.extent+1)
	copy(out, s.responses)
	return out, nil
}

// NewStream replays the canned responses window by window, so the
// streaming fold behind Suppress sees exactly what Score returns.
func (s *scripted) NewStream() (detector.Stream, error) {
	if !s.trained {
		return nil, detector.ErrNotTrained
	}
	return &replay{s: s}, nil
}

// replay is a scripted detector's stream.
type replay struct {
	s   *scripted
	fed int
}

func (r *replay) Push(syms []alphabet.Symbol, dst []float64) ([]float64, error) {
	for range syms {
		r.fed++
		i := r.fed - r.s.extent
		switch {
		case i < 0:
		case i < len(r.s.responses):
			dst = append(dst, r.s.responses[i])
		default:
			dst = append(dst, 0)
		}
	}
	return dst, nil
}

func (r *replay) Reset() { r.fed = 0 }

var _ detector.Detector = (*scripted)(nil)

func mkMap(t *testing.T, name string, capable [][2]int) *eval.Map {
	t.Helper()
	m, err := eval.NewMap(name, 2, 4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for size := 2; size <= 4; size++ {
		for dw := 2; dw <= 4; dw++ {
			o := eval.Blind
			for _, c := range capable {
				if c[0] == size && c[1] == dw {
					o = eval.Capable
				}
			}
			m.Set(eval.Assessment{Detector: name, AnomalySize: size, Window: dw, Outcome: o})
		}
	}
	return m
}

func TestUnionIntersectGain(t *testing.T) {
	a := mkMap(t, "a", [][2]int{{2, 2}, {2, 3}})
	b := mkMap(t, "b", [][2]int{{2, 3}, {3, 3}})

	union, err := UnionCoverage(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := union.CountOutcome(eval.Capable); got != 3 {
		t.Errorf("union detects %d cells, want 3", got)
	}
	inter, err := IntersectCoverage(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := inter.CountOutcome(eval.Capable); got != 1 {
		t.Errorf("intersection detects %d cells, want 1", got)
	}
	gain := Gain(a, b)
	if len(gain) != 1 || gain[0] != [2]int{3, 3} {
		t.Errorf("Gain = %v, want [[3 3]]", gain)
	}
	if got := Gain(a, a); got != nil {
		t.Errorf("self-gain = %v, want empty", got)
	}
}

func TestMergeRejectsMismatchedGrids(t *testing.T) {
	a := mkMap(t, "a", nil)
	b, err := eval.NewMap("b", 2, 5, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnionCoverage(a, b); err == nil {
		t.Errorf("union of mismatched grids succeeded")
	}
	if _, err := IntersectCoverage(a, b); err == nil {
		t.Errorf("intersection of mismatched grids succeeded")
	}
}

func TestSuppress(t *testing.T) {
	// Stream of 50 with anomaly at [25,27); both detectors extent 3.
	p := inject.Placement{Stream: make(seq.Stream, 50), Start: 25, AnomalyLen: 2}
	// Span for extent 3: [23, 26].
	primaryResp := make([]float64, 48)
	primaryResp[5] = 1  // false alarm, unsupported by the suppressor
	primaryResp[10] = 1 // false alarm, supported (suppressor also alarms)
	primaryResp[24] = 1 // span alarm, supported
	suppressorResp := make([]float64, 48)
	suppressorResp[11] = 1 // overlaps the primary alarm at 10 (elements 10-13)
	suppressorResp[24] = 1

	primary := &scripted{name: "p", window: 3, extent: 3, trained: true, responses: primaryResp}
	suppressor := &scripted{name: "s", window: 3, extent: 3, trained: true, responses: suppressorResp}

	r, err := Suppress(primary, suppressor, p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Primary.FalseAlarms != 2 || !r.Primary.Hit {
		t.Errorf("primary stats %+v", r.Primary)
	}
	if r.Suppressed.FalseAlarms != 1 {
		t.Errorf("suppressed false alarms = %d, want 1 (the overlap-supported one)", r.Suppressed.FalseAlarms)
	}
	if !r.Suppressed.Hit {
		t.Errorf("suppression lost the hit")
	}
	if r.Suppressed.Detector != "p&s" {
		t.Errorf("suppressed detector name %q", r.Suppressed.Detector)
	}
}

func TestSuppressVetoesEverythingWhenSuppressorSilent(t *testing.T) {
	p := inject.Placement{Stream: make(seq.Stream, 30), Start: 15, AnomalyLen: 2}
	primaryResp := make([]float64, 28)
	primaryResp[3] = 1
	primaryResp[15] = 1
	primary := &scripted{name: "p", window: 3, extent: 3, trained: true, responses: primaryResp}
	silent := &scripted{name: "s", window: 3, extent: 3, trained: true, responses: make([]float64, 28)}

	r, err := Suppress(primary, silent, p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Suppressed.FalseAlarms != 0 || r.Suppressed.SpanAlarms != 0 || r.Suppressed.Hit {
		t.Errorf("silent suppressor left alarms: %+v", r.Suppressed)
	}
}

func TestSuppressThresholdValidation(t *testing.T) {
	p := inject.Placement{Stream: make(seq.Stream, 30), Start: 15, AnomalyLen: 2}
	d := &scripted{name: "p", window: 3, extent: 3, trained: true, responses: make([]float64, 28)}
	if _, err := Suppress(d, d, p, 0, 1); err == nil {
		t.Errorf("primary threshold 0 accepted")
	}
	if _, err := Suppress(d, d, p, 1, 2); err == nil {
		t.Errorf("suppressor threshold 2 accepted")
	}
}

func TestSuppressDifferentExtents(t *testing.T) {
	// Primary extent 4 (a Markov-style DW=3 detector), suppressor extent 3:
	// overlap matching is by covered elements, so the differing extents
	// must still align.
	p := inject.Placement{Stream: make(seq.Stream, 40), Start: 20, AnomalyLen: 3}
	primaryResp := make([]float64, 37)
	primaryResp[19] = 1 // covers elements 19-22: includes anomaly
	suppressorResp := make([]float64, 38)
	suppressorResp[21] = 1 // covers elements 21-23: overlaps primary's alarm

	primary := &scripted{name: "markovish", window: 3, extent: 4, trained: true, responses: primaryResp}
	suppressor := &scripted{name: "stideish", window: 3, extent: 3, trained: true, responses: suppressorResp}
	r, err := Suppress(primary, suppressor, p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Suppressed.Hit {
		t.Errorf("cross-extent overlap not recognized: %+v", r.Suppressed)
	}
}

func TestTrainAll(t *testing.T) {
	a := &scripted{name: "a", window: 2, extent: 2}
	b := &scripted{name: "b", window: 2, extent: 2}
	if err := TrainAll(make(seq.Stream, 10), a, b); err != nil {
		t.Fatal(err)
	}
	if !a.trained || !b.trained {
		t.Errorf("TrainAll skipped a detector")
	}
}
