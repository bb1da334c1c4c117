// Package nnet implements the neural-network-based anomaly detector (Debar
// et al. 1992; paper Section 5.2): a multilayer feed-forward network that
// predicts the next categorical element from the current fixed-length
// window. The network has no explicit probabilistic machinery, but its
// learned approximation mimics the conditional probabilities of the Markov
// detector — including, as the paper stresses (Section 7), a strong
// dependence on the art of setting its tuning parameters (hidden nodes,
// learning constant, momentum constant, training epochs).
//
// Architecture: the DW-symbol context is one-hot encoded (DW blocks of
// alphabet-size inputs), fed through one tanh hidden layer, and read out as
// a softmax distribution over the next symbol. Training minimizes
// cross-entropy by stochastic gradient descent with momentum over the
// distinct (context, next) grams of the training stream, each weighted by
// its occurrence count — an exact reweighting of per-window SGD that makes
// training time independent of the (million-element) stream length. The
// anomaly response for a test position is 1 minus the predicted probability
// of the element actually observed.
package nnet

import (
	"fmt"
	"math"
	"sort"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/rng"
	"adiv/internal/seq"
)

// Config holds the network's tuning parameters. The paper's point that "the
// performance of a multi-layer, feed-forward network relies on a balance of
// parameter values" is reproduced by the ablation benches, which sweep these.
type Config struct {
	// Hidden is the number of units in the first hidden (tanh) layer.
	Hidden int
	// Hidden2, when positive, adds a second hidden (tanh) layer of that
	// size between the first layer and the softmax readout — the fuller
	// "multilayer" architecture of Debar et al.; 0 keeps a single layer.
	Hidden2 int
	// LearningRate is the SGD learning constant.
	LearningRate float64
	// Momentum is the momentum constant applied to weight updates.
	Momentum float64
	// Epochs is the maximum number of passes over the distinct training
	// grams.
	Epochs int
	// TargetLoss, when positive, stops training early once an epoch's mean
	// weighted cross-entropy falls below it. Early stopping keeps the
	// fourteen trainings of a performance map cheap without changing the
	// converged behavior.
	TargetLoss float64
	// AlphabetSize fixes the symbol domain; 0 infers it from the training
	// stream (largest symbol observed plus one).
	AlphabetSize int
	// Seed seeds weight initialization and example shuffling.
	Seed uint64
	// BatchSize selects the SGD granularity. 0 or 1 is exact per-example
	// SGD — the reference semantics every figure is pinned to. Values > 1
	// compute each batch's per-example gradients at the batch-start weights
	// and apply them with momentum in fixed index order, which trades exact
	// per-example updates for intra-batch parallelism while keeping the
	// trained weights a pure function of (data, config): bit-identical for
	// every worker count.
	BatchSize int
	// Workers bounds the goroutines computing per-example gradients within
	// a batch; 0 means GOMAXPROCS. It has no effect when BatchSize ≤ 1 and
	// never affects the trained weights, only the wall-clock.
	Workers int
}

// DefaultConfig returns a well-tuned configuration for the evaluation data:
// enough capacity and epochs for the learned conditional probabilities of
// never-observed continuations to fall effectively to zero.
func DefaultConfig() Config {
	return Config{
		Hidden:       24,
		LearningRate: 0.25,
		Momentum:     0.7,
		Epochs:       400,
		Seed:         7,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Hidden < 1 {
		return fmt.Errorf("nnet: non-positive hidden layer size %d", c.Hidden)
	}
	if c.Hidden2 < 0 {
		return fmt.Errorf("nnet: negative second hidden layer size %d", c.Hidden2)
	}
	if c.LearningRate <= 0 || math.IsNaN(c.LearningRate) {
		return fmt.Errorf("nnet: non-positive learning rate %v", c.LearningRate)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("nnet: momentum %v outside [0,1)", c.Momentum)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("nnet: non-positive epoch count %d", c.Epochs)
	}
	if c.TargetLoss < 0 || math.IsNaN(c.TargetLoss) {
		return fmt.Errorf("nnet: negative target loss %v", c.TargetLoss)
	}
	if c.AlphabetSize < 0 || c.AlphabetSize > alphabet.MaxSize {
		return fmt.Errorf("nnet: alphabet size %d outside [0,%d]", c.AlphabetSize, alphabet.MaxSize)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("nnet: negative batch size %d", c.BatchSize)
	}
	if c.Workers < 0 {
		return fmt.Errorf("nnet: negative worker count %d", c.Workers)
	}
	return nil
}

// Detector is a neural-network next-element predictor. Construct with New.
type Detector struct {
	window int
	cfg    Config
	net    *network
}

var _ detector.Detector = (*Detector)(nil)

// New returns an untrained neural-network detector with the given window
// length and configuration.
func New(window int, cfg Config) (*Detector, error) {
	if err := detector.ValidateWindow(window); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{window: window, cfg: cfg}, nil
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "nn" }

// Window implements detector.Detector.
func (d *Detector) Window() int { return d.window }

// Extent implements detector.Detector: like the Markov detector, each
// response covers the context window plus the predicted element.
func (d *Detector) Extent() int { return d.window + 1 }

// Config returns the detector's tuning parameters.
func (d *Detector) Config() Config { return d.cfg }

// Train fits the network to the training stream's (DW+1)-grams.
func (d *Detector) Train(train seq.Stream) error {
	k := d.cfg.AlphabetSize
	if k == 0 {
		for _, s := range train {
			if int(s)+1 > k {
				k = int(s) + 1
			}
		}
	}
	grams, err := seq.Build(train, d.window+1)
	if err != nil {
		return fmt.Errorf("nnet: %w", err)
	}
	return d.fit(grams, k, len(train))
}

// TrainCorpus implements detector.CorpusTrainer: the (DW+1)-gram database
// comes from the shared corpus cache and the inferred alphabet size from
// the corpus's cached scan. The database is read shared and never written;
// the SGD examples are the detector's own weighted copies.
func (d *Detector) TrainCorpus(c *seq.Corpus) error {
	k := d.cfg.AlphabetSize
	if k == 0 {
		k = c.AlphabetSize()
	}
	grams, err := c.DB(d.window + 1)
	if err != nil {
		return fmt.Errorf("nnet: %w", err)
	}
	return d.fit(grams, k, c.Len())
}

// fit runs the weighted-SGD training loop over a built gram database.
// streamLen only labels the no-grams error.
func (d *Detector) fit(grams *seq.DB, k, streamLen int) error {
	if k < 2 {
		return fmt.Errorf("nnet: degenerate alphabet of size %d", k)
	}
	if grams.Total() == 0 {
		return fmt.Errorf("nnet: training stream of length %d holds no %d-gram", streamLen, d.window+1)
	}

	// Collect the distinct grams as (key, count) pairs without copying the
	// key bytes, and sort: the keys are equal-length context·next strings,
	// so lexicographic key order is exactly the legacy (context, next)
	// order. The sorted order fixes both the weight-normalization sum and
	// the shuffle indices, keeping training bit-identical.
	type keyedGram struct {
		key   string
		count int
	}
	pairs := make([]keyedGram, 0, grams.Distinct())
	grams.EachKey(func(key string, count int) {
		pairs = append(pairs, keyedGram{key, count})
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })

	ex := &exampleSet{
		window:  d.window,
		ctx:     make([]byte, 0, len(pairs)*d.window),
		targets: make([]uint8, len(pairs)),
		weights: make([]float64, len(pairs)),
	}
	totalW := 0.0
	for i, p := range pairs {
		ex.ctx = append(ex.ctx, p.key[:d.window]...)
		ex.targets[i] = p.key[d.window]
		ex.weights[i] = float64(p.count)
		totalW += ex.weights[i]
	}
	// Normalize weights to mean 1 so the learning rate keeps its usual
	// meaning.
	scale := float64(len(pairs)) / totalW
	for i := range ex.weights {
		ex.weights[i] *= scale
	}

	net := newNetwork(d.window, k, d.cfg.Hidden, d.cfg.Hidden2, rng.New(d.cfg.Seed))
	net.trainSGD(ex, d.cfg)
	d.net = net
	return nil
}

// Prob returns the trained network's predicted probability of the last
// element of g given the preceding window.
func (d *Detector) Prob(g seq.Stream) (float64, error) {
	if d.net == nil {
		return 0, detector.ErrNotTrained
	}
	if len(g) != d.window+1 {
		return 0, fmt.Errorf("nnet: gram length %d, want %d", len(g), d.window+1)
	}
	return d.newKernel().prob(g.Bytes()), nil
}

// Score implements detector.Detector: responses[i] = 1 - P̂(test[i+DW] |
// test[i:i+DW]) under the trained network.
func (d *Detector) Score(test seq.Stream) ([]float64, error) {
	return detector.ScoreWindows(d.newKernel(), d.net != nil, d.window+1, test)
}

// NewStream implements detector.Detector over the same window kernel.
func (d *Detector) NewStream() (detector.Stream, error) {
	return detector.NewWindowStream(d.newKernel(), d.net != nil, d.window+1)
}

// kernel is the network's window kernel. It owns the forward pass's
// activations, so any number of kernels score concurrently against the
// read-only trained weights.
type kernel struct {
	net          *network
	h, h2, probs []float64
}

// newKernel returns nil before training; ScoreWindows and NewWindowStream
// reject an untrained detector without calling it.
func (d *Detector) newKernel() *kernel {
	if d.net == nil {
		return nil
	}
	k := &kernel{net: d.net, h: make([]float64, d.net.hidden), probs: make([]float64, d.net.k)}
	if d.net.hidden2 > 0 {
		k.h2 = make([]float64, d.net.hidden2)
	}
	return k
}

// prob is P̂(gram[DW] | gram[:DW]) for a length-checked (DW+1)-gram. A
// gram holding a symbol outside the trained alphabet, in the context or as
// the next symbol, has probability 0: the network has no input weights for
// such a context symbol and no output for such a next symbol.
func (k *kernel) prob(gram []byte) float64 {
	for _, sym := range gram {
		if int(sym) >= k.net.k {
			return 0
		}
	}
	window := k.net.window
	k.net.forwardInto(gram[:window], k.h, k.h2, k.probs)
	return k.probs[gram[window]]
}

// AppendWindowScores implements detector.WindowScorer: one forward pass
// per window and no allocation beyond dst.
func (k *kernel) AppendWindowScores(b []byte, dst []float64) ([]float64, error) {
	if k == nil {
		return dst, detector.ErrNotTrained
	}
	extent := k.net.window + 1
	for i := 0; i+extent <= len(b); i++ {
		dst = append(dst, 1-k.prob(b[i:i+extent]))
	}
	return dst, nil
}
