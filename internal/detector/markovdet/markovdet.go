// Package markovdet implements the Markov-based anomaly detector (paper
// Section 5.2; in the style of Jha, Tan & Maxion 2001 and Teng et al. 1990).
//
// For every fixed-length sequence of size DW obtained from the test data the
// detector calculates the conditional probability that the (DW+1)st element
// follows it, estimated by maximum likelihood from the training data:
//
//	P(next | context) = count(context·next) / count(context)
//
// The response is 1 - P: 0 for a transition that always happens, 1 for a
// transition never seen in training (including a context never seen at all).
// Because the estimate is frequency-based, the detector responds not only to
// foreign sequences (response exactly 1) but also, weakly, to rare
// transitions (response close to 1) — the source of both its superior
// coverage and its higher false-alarm propensity (paper Section 7).
package markovdet

import (
	"fmt"

	"adiv/internal/detector"
	"adiv/internal/seq"
)

// Detector is a Markov conditional-probability detector. Construct with New.
type Detector struct {
	window   int
	lambda   float64 // Laplace smoothing constant; 0 = maximum likelihood
	k        int     // alphabet size inferred at training (for smoothing)
	contexts *seq.DB // DW-grams
	grams    *seq.DB // (DW+1)-grams
}

var _ detector.Detector = (*Detector)(nil)

// New returns an untrained Markov detector with the given window length.
// The smallest meaningful window is 1 (the Markov assumption proper); the
// paper deploys it from 2 upward to align the axes across detectors.
func New(window int) (*Detector, error) {
	if err := detector.ValidateWindow(window); err != nil {
		return nil, err
	}
	return &Detector{window: window}, nil
}

// NewSmoothed returns a Markov detector with Laplace (add-lambda)
// smoothing of the conditional probabilities:
//
//	P(next | ctx) = (count(ctx·next) + λ) / (count(ctx) + λ·K)
//
// Smoothing is the textbook cure for zero-probability estimates — and an
// instructive ablation here: with λ > 0 no transition ever scores exactly
// 1, so under the paper's strict detection threshold the detector's entire
// coverage evaporates. Parameter values decide detectability.
func NewSmoothed(window int, lambda float64) (*Detector, error) {
	if err := detector.ValidateWindow(window); err != nil {
		return nil, err
	}
	if lambda < 0 {
		return nil, fmt.Errorf("markovdet: negative smoothing constant %v", lambda)
	}
	return &Detector{window: window, lambda: lambda}, nil
}

// Lambda returns the Laplace smoothing constant (0 for maximum likelihood).
func (d *Detector) Lambda() float64 { return d.lambda }

// Name implements detector.Detector.
func (d *Detector) Name() string { return "markov" }

// Window implements detector.Detector.
func (d *Detector) Window() int { return d.window }

// Extent implements detector.Detector: each response covers the context
// window plus the predicted element.
func (d *Detector) Extent() int { return d.window + 1 }

// Train estimates the conditional transition probabilities from the
// training stream by counting DW-grams and (DW+1)-grams.
func (d *Detector) Train(train seq.Stream) error {
	contexts, err := seq.Build(train, d.window)
	if err != nil {
		return fmt.Errorf("markovdet: %w", err)
	}
	grams, err := seq.Build(train, d.window+1)
	if err != nil {
		return fmt.Errorf("markovdet: %w", err)
	}
	k := 0
	for _, s := range train {
		if int(s)+1 > k {
			k = int(s) + 1
		}
	}
	d.contexts, d.grams, d.k = contexts, grams, k
	return nil
}

// TrainCorpus implements detector.CorpusTrainer: both gram databases (DW
// and DW+1) come from the shared corpus cache, and the alphabet size is the
// corpus's cached scan — the same model Train computes, without re-walking
// the stream. The databases are shared and treated as read-only.
func (d *Detector) TrainCorpus(c *seq.Corpus) error {
	contexts, err := c.DB(d.window)
	if err != nil {
		return fmt.Errorf("markovdet: %w", err)
	}
	grams, err := c.DB(d.window + 1)
	if err != nil {
		return fmt.Errorf("markovdet: %w", err)
	}
	d.contexts, d.grams, d.k = contexts, grams, c.AlphabetSize()
	return nil
}

// Prob returns the trained estimate of P(next | context) for the
// (window+1)-gram g (context plus next element). A context never seen in
// training has probability 0 for every continuation.
func (d *Detector) Prob(g seq.Stream) (float64, error) {
	if d.contexts == nil {
		return 0, detector.ErrNotTrained
	}
	if len(g) != d.window+1 {
		return 0, fmt.Errorf("markovdet: gram length %d, want %d", len(g), d.window+1)
	}
	return d.prob(float64(d.contexts.Count(g[:d.window])), float64(d.grams.Count(g))), nil
}

// prob is the estimate of P(next | context) from the counts of the context
// and of the gram.
func (d *Detector) prob(ctxCount, gramCount float64) float64 {
	if d.lambda == 0 {
		if ctxCount == 0 {
			return 0
		}
		return gramCount / ctxCount
	}
	denom := ctxCount + d.lambda*float64(d.k)
	if denom == 0 {
		return 0
	}
	return (gramCount + d.lambda) / denom
}

// Score implements detector.Detector: responses[i] = 1 - P(test[i+DW] |
// test[i:i+DW]), one response per (DW+1)-gram of the test stream, i.e. one
// per element beginning at the (DW+1)st element as the paper puts it.
func (d *Detector) Score(test seq.Stream) ([]float64, error) {
	return detector.ScoreWindows(d, d.contexts != nil, d.window+1, test)
}

// NewStream implements detector.Detector over the same window kernel.
func (d *Detector) NewStream() (detector.Stream, error) {
	return detector.NewWindowStream(d, d.contexts != nil, d.window+1)
}

// AppendWindowScores implements detector.WindowScorer, the Markov
// detector's batch kernel: for a chunk of windows at a time, one rolling
// pass over each database counts every window's context and gram, and the
// responses follow from the two counts, with no allocation beyond dst.
func (d *Detector) AppendWindowScores(b []byte, dst []float64) ([]float64, error) {
	if d.contexts == nil {
		return dst, detector.ErrNotTrained
	}
	var chunk [256]float64 // gram counts of the chunk's windows
	for len(b) > d.window {
		n := min(len(b)-d.window, len(chunk))
		base := len(dst)
		dst = d.contexts.AppendCounts(b[:n+d.window-1], dst)
		grams := d.grams.AppendCounts(b[:n+d.window], chunk[:0])
		out := dst[base:]
		for i, ctx := range out {
			out[i] = 1 - d.prob(ctx, grams[i])
		}
		b = b[n:]
	}
	return dst, nil
}
