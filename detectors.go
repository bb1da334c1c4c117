package adiv

import (
	"fmt"

	"adiv/internal/detector"
	"adiv/internal/detector/compose"
	"adiv/internal/detector/hmm"
	"adiv/internal/detector/lbr"
	"adiv/internal/detector/markovdet"
	"adiv/internal/detector/nnet"
	"adiv/internal/detector/stide"
	"adiv/internal/detector/tstide"
	"adiv/internal/eval"
	"adiv/internal/seq"
)

// Detector is the common interface of the four sequence-based anomaly
// detectors: train a model of normal behavior from a stream, then score a
// test stream with per-position responses in [0,1] (1 = maximal anomaly).
type Detector = detector.Detector

// NNConfig holds the neural-network detector's tuning parameters.
type NNConfig = nnet.Config

// Factory constructs one detector per window length; performance-map
// builders call it once per row of the evaluation grid.
type Factory = eval.Factory

// Detector names accepted by NewDetector and used in reports. The first
// four are the paper's detectors; t-stide (Warrender et al. 1999) is the
// frequency-thresholded Stide variant included as the rare-sensitive
// exact-match baseline.
const (
	DetectorStide       = "stide"
	DetectorMarkov      = "markov"
	DetectorNeuralNet   = "nn"
	DetectorLaneBrodley = "lb"
	DetectorTStide      = "tstide"
)

// DetectorNames lists the four evaluated detectors in the paper's
// presentation order (Figures 3-6: L&B, Markov, Stide, neural net).
func DetectorNames() []string {
	return []string{DetectorLaneBrodley, DetectorMarkov, DetectorStide, DetectorNeuralNet}
}

// AllDetectorNames additionally includes the t-stide extension.
func AllDetectorNames() []string {
	return append(DetectorNames(), DetectorTStide)
}

// NewStide returns an untrained Stide detector.
func NewStide(window int) (Detector, error) { return stide.New(window) }

// NewMarkov returns an untrained Markov conditional-probability detector.
func NewMarkov(window int) (Detector, error) { return markovdet.New(window) }

// NewLaneBrodley returns an untrained Lane & Brodley detector.
func NewLaneBrodley(window int) (Detector, error) { return lbr.New(window) }

// DefaultNNConfig returns well-tuned neural-network parameters for the
// evaluation data.
func DefaultNNConfig() NNConfig { return nnet.DefaultConfig() }

// NewNeuralNet returns an untrained neural-network detector with the given
// tuning parameters.
func NewNeuralNet(window int, cfg NNConfig) (Detector, error) { return nnet.New(window, cfg) }

// NewTStide returns an untrained t-stide detector with the given rarity
// cutoff (relative frequency in (0,1); the classic value is RareCutoff).
func NewTStide(window int, cutoff float64) (Detector, error) { return tstide.New(window, cutoff) }

// TrainWithCorpus trains a detector from a shared training-database cache:
// detectors whose models derive from fixed-width sequence databases (the
// five window detectors) fetch them from the cache, built at most once per
// width; others (e.g. the HMM) fall back to Train on the corpus's stream.
// Both paths produce exactly the model Train would.
func TrainWithCorpus(det Detector, dbs *SequenceCorpus) error {
	return detector.TrainWith(det, dbs)
}

// NewDetector constructs a detector by name with default parameters.
func NewDetector(name string, window int) (Detector, error) {
	switch name {
	case DetectorStide:
		return NewStide(window)
	case DetectorMarkov:
		return NewMarkov(window)
	case DetectorNeuralNet:
		return NewNeuralNet(window, DefaultNNConfig())
	case DetectorLaneBrodley:
		return NewLaneBrodley(window)
	case DetectorTStide:
		return NewTStide(window, RareCutoff)
	default:
		return nil, fmt.Errorf("adiv: unknown detector %q (want one of %v)", name, AllDetectorNames())
	}
}

// Ready-made factories for performance-map construction.
var (
	// StideFactory builds Stide detectors.
	StideFactory Factory = func(dw int) (Detector, error) { return NewStide(dw) }
	// MarkovFactory builds Markov detectors.
	MarkovFactory Factory = func(dw int) (Detector, error) { return NewMarkov(dw) }
	// LaneBrodleyFactory builds Lane & Brodley detectors.
	LaneBrodleyFactory Factory = func(dw int) (Detector, error) { return NewLaneBrodley(dw) }
	// TStideFactory builds t-stide detectors at the classic 0.5% cutoff.
	TStideFactory Factory = func(dw int) (Detector, error) { return NewTStide(dw, RareCutoff) }
)

// NeuralNetFactory builds neural-network detectors with the given
// configuration.
func NeuralNetFactory(cfg NNConfig) Factory {
	return func(dw int) (Detector, error) { return NewNeuralNet(dw, cfg) }
}

// DetectorFactory returns the default factory for a detector name, paired
// with the classification options its response scale calls for (exact
// extremes for the deterministic detectors, the documented tolerances for
// the neural network).
func DetectorFactory(name string) (Factory, EvalOptions, error) {
	switch name {
	case DetectorStide:
		return StideFactory, DefaultEvalOptions(), nil
	case DetectorMarkov:
		return MarkovFactory, DefaultEvalOptions(), nil
	case DetectorLaneBrodley:
		return LaneBrodleyFactory, DefaultEvalOptions(), nil
	case DetectorNeuralNet:
		return NeuralNetFactory(DefaultNNConfig()), NeuralNetEvalOptions(), nil
	case DetectorTStide:
		return TStideFactory, DefaultEvalOptions(), nil
	default:
		return nil, EvalOptions{}, fmt.Errorf("adiv: unknown detector %q (want one of %v)", name, AllDetectorNames())
	}
}

// HMMConfig holds the hidden-Markov-model detector's structure and
// training parameters.
type HMMConfig = hmm.Config

// DefaultHMMConfig returns HMM parameters suited to the evaluation data.
func DefaultHMMConfig() HMMConfig { return hmm.DefaultConfig() }

// NewHMM returns an untrained hidden-Markov-model detector (Warrender et
// al. 1999's fourth data model), an extension beyond the paper's four
// window detectors: it consumes single events against a recurrent hidden
// state (Window = Extent = 1) and scores each symbol by one minus its
// one-step predictive probability.
func NewHMM(cfg HMMConfig) (Detector, error) { return hmm.New(cfg) }

// NewSmoothedMarkov returns a Markov detector with Laplace (add-lambda)
// smoothed conditional probabilities. Smoothing removes the exact-zero
// estimates, so under the strict detection threshold the detector's
// coverage evaporates — a parameter-sensitivity ablation.
func NewSmoothedMarkov(window int, lambda float64) (Detector, error) {
	return markovdet.NewSmoothed(window, lambda)
}

// WithSmoothing decorates a detector with trailing-frame mean smoothing
// (Stide's locality-frame-count idea, generalized). The paper's evaluation
// deliberately bypasses this stage; it is provided for the ablations.
func WithSmoothing(inner Detector, frame int) (Detector, error) {
	return compose.NewSmoothed(inner, frame)
}

// WithQuantization decorates a detector by snapping responses at or above
// floor to exactly 1.
func WithQuantization(inner Detector, floor float64) (Detector, error) {
	return compose.NewQuantized(inner, floor)
}

// ResponseProfile characterizes a detector's response distribution over a
// stream (summary statistics, histogram, exact extreme counts).
type ResponseProfile = eval.Profile

// ProfileResponses scores a stream with a trained detector and profiles
// the response distribution into the given number of bins.
func ProfileResponses(det Detector, stream seq.Stream, bins int) (ResponseProfile, error) {
	return eval.ProfileResponses(det, stream, bins)
}

// LBSimilarity computes the Lane & Brodley adjacency-weighted similarity of
// two equal-length sequences (the Figure-7 calculation).
func LBSimilarity(x, y Stream) (int, error) { return lbr.Similarity(x, y) }

// LBSimilarityWeights additionally returns the per-position weights of the
// calculation.
func LBSimilarityWeights(x, y Stream) (weights []int, total int, err error) {
	return lbr.SimilarityWeights(x, y)
}

// LBMaxSimilarity returns the metric's maximum DW(DW+1)/2 for a window
// length.
func LBMaxSimilarity(window int) int { return lbr.MaxSimilarity(window) }
