// Package tstide implements t-stide, the frequency-thresholded Stide
// variant of Warrender, Forrest & Pearlmutter (1999) — "stide with
// frequency threshold". The paper under reproduction discusses it
// implicitly: rare sequences "are detectable by some detectors, e.g.,
// Markov-based detectors, but are not detectable by others, e.g., Stide"
// (Section 5.1), and cites [20] for the 0.5% rarity definition that t-stide
// introduced. t-stide is the minimal change to Stide that crosses that
// divide: a test window raises the maximal response not only when it is
// foreign but also when its training frequency falls below the threshold.
//
// On the evaluation data it therefore behaves like the rare-sensitive
// regime of the Markov detector — covering the whole (anomaly size ×
// window) space, at the price of alarming on every naturally occurring
// rare sequence — which makes it the second data point for the paper's
// coverage-versus-false-alarms trade-off, and a second candidate primary
// for the Stide-suppression pipeline of Section 7.
package tstide

import (
	"fmt"

	"adiv/internal/detector"
	"adiv/internal/seq"
)

// DefaultRareCutoff is the relative-frequency threshold of the original
// t-stide and of the paper's rare-sequence definition: 0.5%.
const DefaultRareCutoff = 0.005

// Detector is a t-stide instance. Construct with New.
type Detector struct {
	window int
	cutoff float64
	normal *seq.DB
}

var _ detector.Detector = (*Detector)(nil)

// New returns an untrained t-stide with the given window length and rarity
// cutoff (a relative frequency in (0,1); windows at or above it are
// normal).
func New(window int, cutoff float64) (*Detector, error) {
	if err := detector.ValidateWindow(window); err != nil {
		return nil, err
	}
	if cutoff <= 0 || cutoff >= 1 {
		return nil, fmt.Errorf("tstide: rarity cutoff %v outside (0,1)", cutoff)
	}
	return &Detector{window: window, cutoff: cutoff}, nil
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "tstide" }

// Window implements detector.Detector.
func (d *Detector) Window() int { return d.window }

// Extent implements detector.Detector.
func (d *Detector) Extent() int { return d.window }

// Cutoff returns the rarity cutoff the detector was configured with.
func (d *Detector) Cutoff() float64 { return d.cutoff }

// Train records every training window with its occurrence count.
func (d *Detector) Train(train seq.Stream) error {
	db, err := seq.Build(train, d.window)
	if err != nil {
		return fmt.Errorf("tstide: %w", err)
	}
	d.normal = db
	return nil
}

// TrainCorpus implements detector.CorpusTrainer: the counted window
// database is fetched from the shared corpus cache (read-only) instead of
// rebuilt from the stream.
func (d *Detector) TrainCorpus(c *seq.Corpus) error {
	db, err := c.DB(d.window)
	if err != nil {
		return fmt.Errorf("tstide: %w", err)
	}
	d.normal = db
	return nil
}

// Score implements detector.Detector: response 1 for windows that are
// foreign or rarer than the cutoff, 0 otherwise — Stide's exact match
// hardened with the frequency threshold.
func (d *Detector) Score(test seq.Stream) ([]float64, error) {
	return detector.ScoreWindows(d, d.normal != nil, d.window, test)
}

// NewStream implements detector.Detector over the same window kernel.
func (d *Detector) NewStream() (detector.Stream, error) {
	return detector.NewWindowStream(d, d.normal != nil, d.window)
}

// AppendWindowScores implements detector.WindowScorer, t-stide's batch
// kernel. The foreign and rare predicates fold into one counted lookup per
// window, from one rolling pass: foreign means count 0, rare means a
// positive count below the cutoff fraction of training windows.
func (d *Detector) AppendWindowScores(b []byte, dst []float64) ([]float64, error) {
	if d.normal == nil {
		return dst, detector.ErrNotTrained
	}
	limit := d.cutoff * float64(d.normal.Total())
	base := len(dst)
	dst = d.normal.AppendCounts(b, dst)
	out := dst[base:]
	for i, c := range out {
		if c == 0 || c < limit {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return dst, nil
}
