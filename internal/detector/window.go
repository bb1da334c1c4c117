package detector

import (
	"adiv/internal/alphabet"
	"adiv/internal/seq"
)

// WindowByteScorer is the scoring primitive of the window families: score
// exactly one extent-length window, presented as its byte encoding
// (seq.Stream.AppendBytes layout). Batch scoring (ScoreWindows) and
// streaming (NewWindowStream) both call it, so the two agree by
// construction.
//
// Contract: ScoreWindowBytes returns ErrNotTrained before training and an
// error for a window of the wrong length. Implementations must not retain
// w and must not allocate in the success path; the online scorer's
// steady-state zero-allocation guarantee is built on both properties.
type WindowByteScorer interface {
	ScoreWindowBytes(w []byte) (float64, error)
}

// AsWindowByteScorer returns d's window kernel if d is itself one,
// unwrapping instrumentation layers (anything exposing Unwrap() Detector)
// until a kernel or a bare detector is reached. Callers that unwrap this
// way bypass the wrapper's per-Score telemetry by design.
func AsWindowByteScorer(d Detector) (WindowByteScorer, bool) {
	for d != nil {
		if ws, ok := d.(WindowByteScorer); ok {
			return ws, true
		}
		u, ok := d.(interface{ Unwrap() Detector })
		if !ok {
			return nil, false
		}
		d = u.Unwrap()
	}
	return nil, false
}

// ScoreWindows is the batch Score of every window family: the test stream
// is encoded once and the kernel scores each window as an overlapping
// subslice, so the loop allocates nothing per window.
func ScoreWindows(k WindowByteScorer, trained bool, extent int, test seq.Stream) ([]float64, error) {
	if err := CheckScorable(trained, extent, test); err != nil {
		return nil, err
	}
	b := test.Bytes()
	out := make([]float64, seq.NumWindows(len(test), extent))
	for i := range out {
		r, err := k.ScoreWindowBytes(b[i : i+extent])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// NewWindowStream is the NewStream of every window family: the last
// extent symbols over the kernel.
func NewWindowStream(k WindowByteScorer, trained bool, extent int) (Stream, error) {
	if !trained {
		return nil, ErrNotTrained
	}
	return &windowStream{k: k, extent: extent, buf: make([]byte, 2*extent)}, nil
}

// windowStream keeps each symbol twice, at its ring slot and one extent
// further on, so the current window is always the contiguous
// buf[pos : pos+extent] and a step costs O(1) instead of a slide.
type windowStream struct {
	k      WindowByteScorer
	extent int
	buf    []byte
	pos    int // ring slot of the next symbol: the start of the window
	filled int // symbols held, up to extent
}

func (s *windowStream) Step(sym alphabet.Symbol) (float64, bool, error) {
	s.buf[s.pos] = byte(sym)
	s.buf[s.pos+s.extent] = byte(sym)
	if s.pos++; s.pos == s.extent {
		s.pos = 0
	}
	if s.filled < s.extent {
		if s.filled++; s.filled < s.extent {
			return 0, false, nil
		}
	}
	r, err := s.k.ScoreWindowBytes(s.buf[s.pos : s.pos+s.extent])
	if err != nil {
		return 0, false, err
	}
	return r, true, nil
}

func (s *windowStream) Reset() { s.pos, s.filled = 0, 0 }
