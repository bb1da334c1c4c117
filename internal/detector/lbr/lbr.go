// Package lbr implements the Lane & Brodley anomaly detector (Lane &
// Brodley 1997; paper Section 5.2 and Figure 7).
//
// The detector stores the distinct fixed-length sequences of the training
// data as its model of normal behavior. Its similarity metric compares two
// equal-length sequences position by position: a mismatching position
// contributes 0, and a matching position contributes a weight that grows
// with the length of the adjacent run of matches —
//
//	w(i) = 0            if x[i] != y[i]
//	w(i) = 1 + w(i-1)   if x[i] == y[i]      (w(-1) = 0)
//
// so identical sequences of length DW score DW(DW+1)/2 and totally
// dissimilar sequences score 0. A test sequence's similarity is its maximum
// over the stored normal sequences; the anomaly response is that similarity
// complemented into [0,1]. The adjacency bias is exactly what blinds the
// detector to minimal foreign sequences: a foreign sequence differing from a
// normal one only at an edge position scores DW(DW-1)/2 — barely below the
// maximum (Figure 7's 15 -> 10 dip for DW=5) and nowhere near the maximal
// response that the paper's detection threshold of 1 requires.
//
// Only a stored normal sequence reaches the maximum, so scoring answers such
// a window with one lookup in the training window database (the read-only
// DB Stide holds) and scans the profile only for the other windows.
package lbr

import (
	"fmt"

	"adiv/internal/detector"
	"adiv/internal/seq"
)

// Detector is a Lane & Brodley instance. Construct with New.
type Detector struct {
	window int
	db     *seq.DB  // training windows, for the exact-member lookup
	normal [][]byte // distinct training windows, byte-encoded
}

var _ detector.Detector = (*Detector)(nil)

// New returns an untrained Lane & Brodley detector with the given window
// length.
func New(window int) (*Detector, error) {
	if err := detector.ValidateWindow(window); err != nil {
		return nil, err
	}
	return &Detector{window: window}, nil
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "lb" }

// Window implements detector.Detector.
func (d *Detector) Window() int { return d.window }

// Extent implements detector.Detector.
func (d *Detector) Extent() int { return d.window }

// MaxSimilarity returns the metric's maximum value DW(DW+1)/2 for a window
// length of dw: the score of two identical sequences.
func MaxSimilarity(dw int) int { return dw * (dw + 1) / 2 }

// Similarity computes the Lane & Brodley adjacency-weighted similarity of
// two sequences of equal length. It returns an error on a length mismatch.
func Similarity(x, y seq.Stream) (int, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("lbr: similarity of sequences with lengths %d and %d", len(x), len(y))
	}
	sim, run := 0, 0
	for i := range x {
		if x[i] == y[i] {
			run++
			sim += run
		} else {
			run = 0
		}
	}
	return sim, nil
}

// SimilarityWeights returns the per-position weight contributions of the
// similarity calculation alongside the total, the decomposition shown in the
// paper's Figure 7 (the "step curve").
func SimilarityWeights(x, y seq.Stream) (weights []int, total int, err error) {
	if len(x) != len(y) {
		return nil, 0, fmt.Errorf("lbr: similarity of sequences with lengths %d and %d", len(x), len(y))
	}
	weights = make([]int, len(x))
	run := 0
	for i := range x {
		if x[i] == y[i] {
			run++
			weights[i] = run
			total += run
		} else {
			run = 0
		}
	}
	return weights, total, nil
}

// Train stores the distinct training windows as the profile of normal
// behavior, in deterministic (lexicographic) order.
func (d *Detector) Train(train seq.Stream) error {
	db, err := seq.Build(train, d.window)
	if err != nil {
		return fmt.Errorf("lbr: %w", err)
	}
	d.setProfile(db)
	return nil
}

// TrainCorpus implements detector.CorpusTrainer: the window database comes
// from the shared corpus cache. The detector only reads the DB, and the
// profile is its own byte-encoded copy, so sharing the DB is safe.
func (d *Detector) TrainCorpus(c *seq.Corpus) error {
	db, err := c.DB(d.window)
	if err != nil {
		return fmt.Errorf("lbr: %w", err)
	}
	d.setProfile(db)
	return nil
}

// setProfile keeps the built database and extracts its distinct windows.
func (d *Detector) setProfile(db *seq.DB) {
	d.db = db
	normal := make([][]byte, 0, db.Distinct())
	for _, w := range db.Common(0) { // Common(0) = all distinct windows, sorted
		normal = append(normal, w.Bytes())
	}
	d.normal = normal
}

// NormalCount returns the number of stored normal sequences, or 0 before
// training.
func (d *Detector) NormalCount() int { return len(d.normal) }

// similarityBytes is Similarity specialized to byte-encoded windows on both
// sides, avoiding per-comparison conversions in the scoring hot path.
func similarityBytes(x, y []byte) int {
	sim, run := 0, 0
	for i := range x {
		if x[i] == y[i] {
			run++
			sim += run
		} else {
			run = 0
		}
	}
	return sim
}

// Score implements detector.Detector: for each test window, the response is
// 1 - maxSim/MaxSimilarity(DW), where maxSim is the similarity to the most
// similar stored normal sequence. A response of 1 therefore requires the
// window to share no position with any normal sequence.
func (d *Detector) Score(test seq.Stream) ([]float64, error) {
	return detector.ScoreWindows(d, d.normal != nil, d.window, test)
}

// NewStream implements detector.Detector over the same window kernel.
func (d *Detector) NewStream() (detector.Stream, error) {
	return detector.NewWindowStream(d, d.normal != nil, d.window)
}

// AppendWindowScores implements detector.WindowScorer, the Lane & Brodley
// batch kernel, with no allocation beyond dst. A stored normal sequence is
// the only window reaching similarity MaxSimilarity(DW), so one rolling
// pass of training-DB lookups scores every member 0; only the other
// windows scan the profile for their best similarity, which is then always
// below the maximum.
func (d *Detector) AppendWindowScores(b []byte, dst []float64) ([]float64, error) {
	if d.normal == nil {
		return dst, detector.ErrNotTrained
	}
	base := len(dst)
	dst = d.db.AppendCounts(b, dst)
	out := dst[base:]
	for i, c := range out {
		if c > 0 {
			out[i] = 0
		} else {
			out[i] = d.scan(b[i : i+d.window])
		}
	}
	return dst, nil
}

// scan returns the response to a window absent from the profile:
// 1 - maxSim/MaxSimilarity(DW) over the whole profile.
func (d *Detector) scan(w []byte) float64 {
	simMax := float64(MaxSimilarity(d.window))
	best := 0
	for _, normal := range d.normal {
		if s := similarityBytes(normal, w); s > best {
			best = s
		}
	}
	return 1 - float64(best)/simMax
}
