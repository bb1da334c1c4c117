// Package detector defines the common anatomy of the sequence-based anomaly
// detectors under study (paper Section 4.2): a mechanism for modeling normal
// behavior (Train), a metric for measuring deviation from that model
// (Score), and a thresholding mechanism applied downstream by the evaluation
// harness. The four detectors are deliberately invariant in the first and
// third components — all consume fixed-length sequences of categorical data
// and all are thresholded identically — and diverse only in the second, the
// similarity metric, which is the single dimension of diversity the paper
// isolates.
package detector

import (
	"errors"
	"fmt"

	"adiv/internal/alphabet"
	"adiv/internal/seq"
)

// Detector is a sequence-based anomaly detector.
//
// Responses are real values in [0, 1] where 0 means completely normal and 1
// means maximal abnormality (paper Section 5.5). Score returns one response
// per position: responses[i] is the detector's judgment of the stream
// elements test[i : i+Extent()].
type Detector interface {
	// Name identifies the detector ("stide", "markov", "nn", "lb").
	Name() string
	// Window returns the detector-window length DW the detector was
	// configured with.
	Window() int
	// Extent returns the number of consecutive stream elements each
	// response covers: DW for pure window-matching detectors (Stide, L&B),
	// DW+1 for next-element predictors (Markov, neural network) whose unit
	// of judgment is the window plus the predicted element.
	Extent() int
	// Train builds the model of normal behavior from the training stream.
	// Training replaces any previous model.
	Train(train seq.Stream) error
	// Score returns the per-position responses over the test stream. It
	// returns an error if called before Train or if the stream is shorter
	// than Extent().
	Score(test seq.Stream) ([]float64, error)
	// NewStream returns fresh per-stream state over the trained model:
	// pushing a stream through it, in batches of any sizes, yields exactly
	// Score's responses, bit for bit. It returns ErrNotTrained before
	// Train. The stream owns all of its mutable state and the model is
	// read-only after training, so one trained detector serves any number
	// of streams on any goroutines (retraining while streams are live is a
	// data race).
	NewStream() (Stream, error)
}

// Stream is the incremental form of a detector's Score over one symbol
// stream. It is not safe for concurrent use; distinct streams of one
// detector are independent.
type Stream interface {
	// Push feeds the next symbols in order and appends to dst the response
	// of every window the batch completes: none until the symbols fed
	// cover one extent, then one per symbol, the window ending at it.
	// A per-symbol caller pushes batches of one. On error dst holds the
	// responses appended before the failing window.
	Push(syms []alphabet.Symbol, dst []float64) ([]float64, error)
	// Reset returns the stream to its just-constructed state.
	Reset()
}

// Fold is the batch Score of a detector whose scoring primitive is its
// Stream: the whole test stream pushed through one fresh stream.
func Fold(d Detector, test seq.Stream) ([]float64, error) {
	s, err := d.NewStream()
	if err != nil {
		return nil, err
	}
	if err := CheckScorable(true, d.Extent(), test); err != nil {
		return nil, err
	}
	out, err := s.Push(test, make([]float64, 0, seq.NumWindows(len(test), d.Extent())))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CorpusTrainer is the optional training fast path alongside Detector.Train:
// detectors whose models derive from fixed-width sequence databases
// implement it to fetch those databases from a shared seq.Corpus instead of
// rebuilding them from the raw stream — on the evaluation grid every window
// width is shared by three detectors, so the cache collapses dozens of
// million-element build passes into one per width. Implementations must
// treat every *seq.DB obtained from the corpus as read-only: the databases
// are shared across detectors and goroutines.
type CorpusTrainer interface {
	// TrainCorpus builds the model of normal behavior from the corpus's
	// cached databases. Like Train, it replaces any previous model.
	TrainCorpus(c *seq.Corpus) error
}

// TrainWith trains d from the shared corpus when the detector supports the
// fast path, falling back to Train on the corpus's stream otherwise. Both
// paths produce exactly the same model: TrainCorpus implementations derive
// it from databases that Build would have produced from the same stream.
func TrainWith(d Detector, c *seq.Corpus) error {
	if c == nil {
		return errors.New("detector: nil training corpus")
	}
	if ct, ok := d.(CorpusTrainer); ok {
		return ct.TrainCorpus(c)
	}
	return d.Train(c.Stream())
}

// ErrNotTrained is returned by Score and NewStream when the detector has no
// model yet.
var ErrNotTrained = errors.New("detector: not trained")

// ErrStreamTooShort is returned by Score when the test stream cannot hold a
// single detector window.
var ErrStreamTooShort = errors.New("detector: test stream shorter than detector extent")

// ValidateWindow rejects non-positive detector windows with a uniform error.
func ValidateWindow(dw int) error {
	if dw < 1 {
		return fmt.Errorf("detector: non-positive window %d", dw)
	}
	return nil
}

// CheckScorable is the shared precondition check of batch scoring.
func CheckScorable(trained bool, extent int, test seq.Stream) error {
	if !trained {
		return ErrNotTrained
	}
	if len(test) < extent {
		return fmt.Errorf("%w: stream length %d, extent %d", ErrStreamTooShort, len(test), extent)
	}
	return nil
}
