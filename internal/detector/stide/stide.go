// Package stide implements the Stide anomaly detector (Forrest et al. 1996;
// Warrender et al. 1999), the paper's pure sequence-matching detector.
//
// Stide slides a window of fixed length DW across the training data and
// stores every distinct window in a database of normal sequences. At test
// time each window either matches a normal sequence (response 0) or does not
// (response 1); no frequencies or probabilities are involved, which is
// precisely why Stide is structurally blind to rare-but-seen sequences and
// to any foreign sequence longer than its window (paper Sections 5.2, 7).
//
// The locality frame count (LFC) noise-suppression stage of the original
// system is compose.Smoothed over Stide's 0/1 responses; the paper's
// evaluation explicitly sets it aside (Section 5.5) and so do the figure
// harnesses, but the ablation bench exercises it.
package stide

import (
	"fmt"

	"adiv/internal/detector"
	"adiv/internal/seq"
)

// Detector is a Stide instance. Construct with New; the zero value is not
// usable.
type Detector struct {
	window int
	normal *seq.DB
}

var _ detector.Detector = (*Detector)(nil)

// New returns an untrained Stide with the given detector-window length.
func New(window int) (*Detector, error) {
	if err := detector.ValidateWindow(window); err != nil {
		return nil, err
	}
	return &Detector{window: window}, nil
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "stide" }

// Window implements detector.Detector.
func (d *Detector) Window() int { return d.window }

// Extent implements detector.Detector: Stide judges exactly one window per
// response.
func (d *Detector) Extent() int { return d.window }

// Train stores every distinct training window in the normal database.
func (d *Detector) Train(train seq.Stream) error {
	db, err := seq.Build(train, d.window)
	if err != nil {
		return fmt.Errorf("stide: %w", err)
	}
	d.normal = db
	return nil
}

// TrainCorpus implements detector.CorpusTrainer: the normal database is
// fetched from the shared corpus cache (and therefore shared, read-only)
// instead of rebuilt from the stream.
func (d *Detector) TrainCorpus(c *seq.Corpus) error {
	db, err := c.DB(d.window)
	if err != nil {
		return fmt.Errorf("stide: %w", err)
	}
	d.normal = db
	return nil
}

// NormalCount returns the number of distinct sequences in the trained
// normal database, or 0 before training.
func (d *Detector) NormalCount() int {
	if d.normal == nil {
		return 0
	}
	return d.normal.Distinct()
}

// Score implements detector.Detector: response 1 for each test window
// absent from the normal database, 0 otherwise.
func (d *Detector) Score(test seq.Stream) ([]float64, error) {
	return detector.ScoreWindows(d, d.normal != nil, d.window, test)
}

// NewStream implements detector.Detector over the same window kernel.
func (d *Detector) NewStream() (detector.Stream, error) {
	return detector.NewWindowStream(d, d.normal != nil, d.window)
}

// AppendWindowScores implements detector.WindowScorer, Stide's batch
// kernel: one rolling pass of table lookups, then 1 for every window the
// normal database lacks and 0 for every member.
func (d *Detector) AppendWindowScores(b []byte, dst []float64) ([]float64, error) {
	if d.normal == nil {
		return dst, detector.ErrNotTrained
	}
	base := len(dst)
	dst = d.normal.AppendCounts(b, dst)
	out := dst[base:]
	for i, c := range out {
		if c == 0 {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return dst, nil
}
