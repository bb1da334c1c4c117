package detector

import (
	"slices"

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
	out, err := scoreWindows(k, extent, test.Bytes(), make([]float64, 0, seq.NumWindows(len(test), extent)))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scoreWindows is the window families' one scoring loop, shared by batch
// Score and the window stream: it appends the kernel's response to every
// extent-length window of b, in order.
func scoreWindows(k WindowByteScorer, extent int, b []byte, dst []float64) ([]float64, error) {
	m := len(b) - extent + 1
	if m <= 0 {
		return dst, nil
	}
	base := len(dst)
	dst = slices.Grow(dst, m)[:base+m]
	out := dst[base:]
	for i := range out {
		r, err := k.ScoreWindowBytes(b[i : i+extent])
		if err != nil {
			return dst[:base+i], err
		}
		out[i] = r
	}
	return dst, nil
}

// NewWindowStream is the NewStream of every window family: a byte buffer
// over the kernel.
func NewWindowStream(k WindowByteScorer, trained bool, extent int) (Stream, error) {
	if !trained {
		return nil, ErrNotTrained
	}
	return &windowStream{k: k, extent: extent, buf: make([]byte, 0, extent)}, nil
}

// windowStream keeps the stream's tail, its last min(seen, extent-1)
// symbols, at the front of buf. A push encodes the batch right after the
// tail and scores [tail|batch] with ScoreWindows' loop, so every window it
// completes is one contiguous subslice; then the new tail moves to the
// front. buf grows to the largest batch pushed plus the tail and is reused
// from then on.
type windowStream struct {
	k      WindowByteScorer
	extent int
	buf    []byte
	tail   int // symbols held at the front of buf
}

func (s *windowStream) Push(syms []alphabet.Symbol, dst []float64) ([]float64, error) {
	n := s.tail + len(syms)
	if n > cap(s.buf) {
		s.buf = append(s.buf[:s.tail], make([]byte, len(syms))...)
	}
	b := s.buf[:n]
	for i, sym := range syms {
		b[s.tail+i] = byte(sym)
	}
	dst, err := scoreWindows(s.k, s.extent, b, dst)
	if err != nil {
		return dst, err
	}
	s.tail = min(n, s.extent-1)
	copy(b, b[n-s.tail:])
	return dst, nil
}

func (s *windowStream) Reset() { s.tail = 0 }
