// Package hmm implements a hidden-Markov-model anomaly detector in the
// style of Warrender, Forrest & Pearlmutter (1999) — the fourth data model
// of the paper's key reference [20], alongside stide, t-stide and the
// frequency/rule methods. The model is a fully-connected HMM over hidden
// states with categorical emissions, trained by Baum-Welch
// (expectation-maximization with scaled forward-backward) on the training
// stream; at test time the detector runs the scaled forward recursion and
// scores each symbol by one minus its one-step predictive probability
// P(o_t | o_1..t-1) — near 0 while the model tracks the process, near 1
// when the observed symbol is (nearly) impossible given every plausible
// hidden state.
//
// Unlike the paper's four window detectors, the HMM consumes single events
// against a recurrent hidden state, so its "window" is effectively
// unbounded; it is provided as an extension point on the same Detector
// interface (Window = Extent = 1).
//
// Training runs on flat row-major parameter and trellis arrays with one
// scratch allocation per Train call (kernel.go); the pre-kernel
// implementation is retained verbatim in reference_test.go and the trained
// model is pinned bit-for-bit against it, for every seed and worker count.
package hmm

import (
	"fmt"
	"math"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/rng"
	"adiv/internal/seq"
)

// Config holds the HMM's structure and training parameters.
type Config struct {
	// States is the number of hidden states. Warrender et al. sized it
	// near the process's alphabet; that remains a good default.
	States int
	// Iterations bounds the Baum-Welch passes.
	Iterations int
	// MaxTrainSymbols truncates the training stream for EM (Baum-Welch is
	// O(states² · length) per pass; the evaluation's million-element
	// stream is heavily redundant). 0 keeps the whole stream.
	MaxTrainSymbols int
	// AlphabetSize fixes the emission domain; 0 infers it from training.
	AlphabetSize int
	// Seed seeds the parameter initialization.
	Seed uint64
	// Smoothing is the additive constant applied when normalizing
	// re-estimated rows, keeping the model ergodic.
	Smoothing float64
	// Workers bounds the goroutines of the Baum-Welch E-step; 0 or 1 runs
	// the fused sequential kernel. The parallel E-step partitions work so
	// that no floating-point reduction ever crosses a goroutine boundary
	// (per-timestep normalizers, per-state accumulator rows), so the
	// trained model is bit-identical for every worker count — worker count
	// only affects wall-clock, never the model.
	Workers int
}

// DefaultConfig returns a configuration suited to the evaluation data:
// enough states for the 6-position cycle plus the excursion interiors (8
// states leave a cycle position aliased and the predictive probability
// stuck near 0.5 there; 10 track it cleanly).
func DefaultConfig() Config {
	return Config{
		States:          10,
		Iterations:      30,
		MaxTrainSymbols: 20_000,
		Seed:            13,
		Smoothing:       1e-6,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.States < 1 {
		return fmt.Errorf("hmm: non-positive state count %d", c.States)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("hmm: non-positive iteration count %d", c.Iterations)
	}
	if c.MaxTrainSymbols < 0 {
		return fmt.Errorf("hmm: negative training truncation %d", c.MaxTrainSymbols)
	}
	if c.AlphabetSize < 0 || c.AlphabetSize > alphabet.MaxSize {
		return fmt.Errorf("hmm: alphabet size %d outside [0,%d]", c.AlphabetSize, alphabet.MaxSize)
	}
	if c.Smoothing < 0 {
		return fmt.Errorf("hmm: negative smoothing %v", c.Smoothing)
	}
	if c.Workers < 0 {
		return fmt.Errorf("hmm: negative worker count %d", c.Workers)
	}
	return nil
}

// Detector is an HMM anomaly detector. Construct with New.
//
// The trained model lives in flat row-major arrays: trans[i*n+j] is
// P(state j | state i), emit[i*k+o] is P(symbol o | state i), and emitT is
// the k×n transpose of emit kept alongside so the forward recursions read
// per-symbol emission columns with unit stride.
type Detector struct {
	cfg   Config
	n     int       // state count (== cfg.States, cached for indexing)
	k     int       // alphabet size
	pi    []float64 // initial state distribution
	trans []float64 // n×n row-major: trans[i*n+j] = P(state j | state i)
	emit  []float64 // n×k row-major: emit[i*k+o] = P(symbol o | state i)
	emitT []float64 // k×n transpose of emit
}

var _ detector.Detector = (*Detector)(nil)

// New returns an untrained HMM detector.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg}, nil
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "hmm" }

// Window implements detector.Detector. The HMM carries unbounded context
// in its hidden state; the nominal window is one event.
func (d *Detector) Window() int { return 1 }

// Extent implements detector.Detector: one response per symbol.
func (d *Detector) Extent() int { return 1 }

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Train fits the model to the training stream by Baum-Welch.
func (d *Detector) Train(train seq.Stream) error {
	k := d.cfg.AlphabetSize
	if k == 0 {
		for _, s := range train {
			if int(s)+1 > k {
				k = int(s) + 1
			}
		}
	}
	if k < 2 {
		return fmt.Errorf("hmm: degenerate alphabet of size %d", k)
	}
	obs := train
	if d.cfg.MaxTrainSymbols > 0 && len(obs) > d.cfg.MaxTrainSymbols {
		obs = obs[:d.cfg.MaxTrainSymbols]
	}
	if len(obs) < 2 {
		return fmt.Errorf("hmm: training stream of length %d too short", len(obs))
	}

	n := d.cfg.States
	src := rng.New(d.cfg.Seed)
	pi := make([]float64, n)
	trans := make([]float64, n*n)
	emit := make([]float64, n*k)
	// Identical RNG consumption order to the reference: pi first, then per
	// state one transition row followed by one emission row.
	randomDistributionInto(src, pi)
	for i := 0; i < n; i++ {
		randomDistributionInto(src, trans[i*n:(i+1)*n])
		randomDistributionInto(src, emit[i*k:(i+1)*k])
	}

	sc := newBWScratch(len(obs), n, k)
	sc.setEmitT(emit)
	for iter := 0; iter < d.cfg.Iterations; iter++ {
		baumWelchPassFlat(obs, pi, trans, emit, d.cfg.Smoothing, sc, d.cfg.Workers)
	}
	d.n, d.k, d.pi, d.trans, d.emit = n, k, pi, trans, emit
	d.emitT = append([]float64(nil), sc.emitT...)
	return nil
}

// randomDistributionInto fills p with a random probability vector bounded
// away from zero so that EM starts ergodic — the same draws and arithmetic
// as the reference's randomDistribution, minus its allocation.
func randomDistributionInto(src *rng.Source, p []float64) {
	sum := 0.0
	for i := range p {
		p[i] = 0.1 + src.Float64()
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
}

// Score implements detector.Detector: responses[t] = 1 - P(test[t] |
// test[0..t-1]) under the trained model, the belief stream folded over the
// test stream.
func (d *Detector) Score(test seq.Stream) ([]float64, error) {
	return detector.Fold(d, test)
}

// NewStream implements detector.Detector: the HMM's scoring primitive is
// the scaled forward recursion, one belief update per symbol.
func (d *Detector) NewStream() (detector.Stream, error) {
	if d.pi == nil {
		return nil, detector.ErrNotTrained
	}
	b := &belief{d: d, cur: make([]float64, d.n), next: make([]float64, d.n)}
	b.Reset()
	return b, nil
}

// belief is one stream's normalized forward variable over hidden states.
// The first step conditions on the initial distribution.
type belief struct {
	d         *Detector
	cur, next []float64
	started   bool
}

func (b *belief) Reset() {
	copy(b.cur, b.d.pi)
	b.started = false
}

// Push runs the one-symbol belief update over the batch: every symbol
// completes a window of extent 1.
func (b *belief) Push(syms []alphabet.Symbol, dst []float64) ([]float64, error) {
	for _, sym := range syms {
		dst = append(dst, b.step(sym))
	}
	return dst, nil
}

func (b *belief) step(sym alphabet.Symbol) float64 {
	d, n := b.d, b.d.n
	cur, next := b.cur, b.next
	o := int(sym)
	p := 0.0
	if o < d.k {
		et := d.emitT[o*n : o*n+n]
		if !b.started {
			for i := range next {
				next[i] = cur[i] * et[i]
				p += next[i]
			}
		} else {
			// The belief update Σ_i cur[i]·trans[i][j] runs i-outer over
			// unit-stride transition rows; each next[j] still sums its
			// terms in ascending i, so the responses match the reference
			// recursion bit for bit.
			for j := range next {
				next[j] = 0
			}
			for i, cv := range cur {
				row := d.trans[i*n : i*n+n]
				for j := range row {
					next[j] += cv * row[j]
				}
			}
			for j := range next {
				next[j] *= et[j]
				p += next[j]
			}
		}
	}
	b.started = true
	if p > 0 {
		for i := range next {
			next[i] /= p
		}
		b.cur, b.next = next, cur
	} else {
		// An impossible symbol: reset belief to the stationary-ish
		// initial distribution and keep scoring.
		copy(cur, d.pi)
	}
	return 1 - math.Min(1, p)
}

// PredictiveProb returns the model's one-step predictive probabilities for
// the stream (1 - Score), mainly for tests and analysis.
func (d *Detector) PredictiveProb(test seq.Stream) ([]float64, error) {
	responses, err := d.Score(test)
	if err != nil {
		return nil, err
	}
	for i, r := range responses {
		responses[i] = 1 - r
	}
	return responses, nil
}
