package detector

// WindowByteScorer is the optional streaming fast path of a detector:
// score exactly one extent-length window, presented as its byte encoding
// (seq.Stream.AppendBytes layout), without the batch Score call's response
// slice or stream re-encoding.
//
// Contract: for a trained detector whose batch Score of an extent-length
// stream w yields the single response r, ScoreWindowBytes of w's byte
// encoding must return exactly r — bit for bit — or the corresponding
// error (ErrNotTrained before training). Implementations must not retain w
// and must not allocate in the success path; the online scorer's
// steady-state zero-allocation guarantee is built on both properties.
type WindowByteScorer interface {
	ScoreWindowBytes(w []byte) (float64, error)
}

// AsWindowByteScorer returns d's streaming fast path if it offers one,
// unwrapping instrumentation layers (anything exposing Unwrap() Detector)
// until a scorer or a bare detector is reached. Callers that unwrap this
// way bypass the wrapper's per-Score telemetry by design — the streaming
// adapter records its own online/* metrics instead, keeping spans off the
// per-symbol hot path.
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
