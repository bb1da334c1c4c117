package detector

import (
	"fmt"

	"adiv/internal/alphabet"
	"adiv/internal/seq"
)

// WindowScorer is the scoring primitive of the window families, a batch
// kernel: AppendWindowScores appends to dst the response to every
// extent-length window of the byte-encoded buffer b (seq.Stream.Bytes
// layout), in order, and returns the extended slice. A buffer shorter than
// the extent holds no window and appends nothing. Batch scoring
// (ScoreWindows) and streaming (NewWindowStream) both call it once per
// buffer, so the two agree by construction.
//
// Contract: AppendWindowScores returns ErrNotTrained, with dst unchanged,
// before training. It must not retain b, must not modify the trained model
// (one model serves any number of streams), and must not allocate beyond
// growing dst; the online scorer's steady-state zero-allocation guarantee
// is built on these properties.
type WindowScorer interface {
	AppendWindowScores(b []byte, dst []float64) ([]float64, error)
}

// WindowByteScorer scores exactly one extent-length window, presented as
// its byte encoding: the per-window view AsWindowByteScorer returns.
type WindowByteScorer interface {
	ScoreWindowBytes(w []byte) (float64, error)
}

// AsWindowByteScorer returns a one-window scorer over d's batch kernel if d
// is itself one, unwrapping instrumentation layers (anything exposing
// Unwrap() Detector) until a kernel or a bare detector is reached. Callers
// that unwrap this way bypass the wrapper's per-Score telemetry by design.
// The returned scorer holds its own scratch and is not safe for concurrent
// use.
func AsWindowByteScorer(d Detector) (WindowByteScorer, bool) {
	for d != nil {
		if k, ok := d.(WindowScorer); ok {
			return &oneWindow{k: k, extent: d.Extent()}, true
		}
		u, ok := d.(interface{ Unwrap() Detector })
		if !ok {
			return nil, false
		}
		d = u.Unwrap()
	}
	return nil, false
}

// oneWindow adapts a batch kernel to single windows.
type oneWindow struct {
	k      WindowScorer
	extent int
	dst    [1]float64
}

func (a *oneWindow) ScoreWindowBytes(w []byte) (float64, error) {
	if len(w) != a.extent {
		return 0, fmt.Errorf("detector: window length %d, want %d", len(w), a.extent)
	}
	out, err := a.k.AppendWindowScores(w, a.dst[:0])
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// ScoreWindows is the batch Score of every window family: the test stream
// is encoded once and the kernel scores it in one call.
func ScoreWindows(k WindowScorer, trained bool, extent int, test seq.Stream) ([]float64, error) {
	if err := CheckScorable(trained, extent, test); err != nil {
		return nil, err
	}
	out, err := k.AppendWindowScores(test.Bytes(), make([]float64, 0, seq.NumWindows(len(test), extent)))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NewWindowStream is the NewStream of every window family: a byte buffer
// over the kernel.
func NewWindowStream(k WindowScorer, trained bool, extent int) (Stream, error) {
	if !trained {
		return nil, ErrNotTrained
	}
	return &windowStream{k: k, extent: extent, buf: make([]byte, 0, extent)}, nil
}

// windowStream keeps the stream's tail, its last min(seen, extent-1)
// symbols, at the front of buf. A push encodes the batch right after the
// tail and hands [tail|batch] to the kernel in one call, so every window it
// completes is scored; then the new tail moves to the front. buf grows to
// the largest batch pushed plus the tail and is reused from then on.
type windowStream struct {
	k      WindowScorer
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
	enc := b[s.tail:][:len(syms)]
	for i, sym := range syms {
		enc[i] = byte(sym)
	}
	dst, err := s.k.AppendWindowScores(b, dst)
	if err != nil {
		return dst, err
	}
	s.tail = min(n, s.extent-1)
	copy(b, b[n-s.tail:])
	return dst, nil
}

func (s *windowStream) Reset() { s.tail = 0 }
