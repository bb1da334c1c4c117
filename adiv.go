package adiv

import (
	"adiv/internal/alphabet"
	"adiv/internal/anomaly"
	"adiv/internal/checkpoint"
	"adiv/internal/core"
	"adiv/internal/eval"
	"adiv/internal/gen"
	"adiv/internal/inject"
	"adiv/internal/seq"
)

// Core data types.
type (
	// Symbol is one categorical element of a data stream.
	Symbol = alphabet.Symbol
	// Stream is a stream of categorical symbols.
	Stream = seq.Stream
	// Alphabet describes the symbol domain of a stream.
	Alphabet = alphabet.Alphabet
	// SequenceDB is a fixed-width sequence database with occurrence counts.
	SequenceDB = seq.DB
	// SequenceIndex caches sequence databases of one stream at many widths.
	SequenceIndex = seq.Index
	// SequenceCorpus is a concurrency-safe, build-once cache of sequence
	// databases over one immutable training stream; detectors trained
	// through it share per-width databases instead of rebuilding them.
	SequenceCorpus = seq.Corpus
	// AnomalyReport records how a candidate sequence relates to training
	// data (foreign / minimal / composed of rare parts).
	AnomalyReport = anomaly.Report
	// Placement is an anomaly injected into background data.
	Placement = inject.Placement
)

// Evaluation types.
type (
	// Config parameterizes a full evaluation run.
	Config = core.Config
	// Corpus is the complete evaluation data suite.
	Corpus = core.Corpus
	// EvalOptions tunes blind/weak/capable classification.
	EvalOptions = eval.Options
	// Outcome classifies a detector's reaction to an injected anomaly.
	Outcome = eval.Outcome
	// Assessment is one detector deployment on one test stream.
	Assessment = eval.Assessment
	// Map is a detector performance map over the evaluation grid.
	Map = eval.Map
	// AlarmStats tallies hits and false alarms at a detection threshold.
	AlarmStats = eval.AlarmStats
	// OperatingPoint is one point of a detection-threshold sweep.
	OperatingPoint = eval.OperatingPoint
	// GridScheduler is a bounded worker pool for performance-map grid work;
	// set it as EvalOptions.Scheduler to share one pool across every map of
	// a run (the commands' -j flag).
	GridScheduler = eval.Scheduler
	// CheckpointJournal is the append-only cell journal behind the
	// commands' -checkpoint/-resume flags; set it as
	// EvalOptions.Checkpoint to make grid runs crash-recoverable.
	CheckpointJournal = checkpoint.Journal
	// CheckpointFingerprint pins the run configuration a journal was
	// written under; resuming under a different fingerprint is refused.
	// Build one with Corpus.Fingerprint.
	CheckpointFingerprint = checkpoint.Fingerprint
)

// OpenCheckpoint opens (or, with resume, continues) a cell journal under
// dir for the fingerprinted run — the library-level counterpart of the
// commands' -checkpoint/-resume flags.
func OpenCheckpoint(dir string, fp CheckpointFingerprint, resume bool) (*CheckpointJournal, error) {
	return checkpoint.Open(dir, fp, resume)
}

// Outcome values.
const (
	OutcomeUndefined = eval.Undefined
	OutcomeBlind     = eval.Blind
	OutcomeWeak      = eval.Weak
	OutcomeCapable   = eval.Capable
)

// Paper-dictated evaluation constants.
const (
	// AlphabetSize is the evaluation alphabet size (8).
	AlphabetSize = gen.AlphabetSize
	// RareCutoff is the rare-sequence relative-frequency bound (0.5%).
	RareCutoff = gen.RareCutoff
	// MinAnomalySize and MaxAnomalySize bound the MFS lengths (2-9).
	MinAnomalySize = gen.MinAnomalySize
	MaxAnomalySize = gen.MaxAnomalySize
	// MinWindow and MaxWindow bound the detector windows (2-15).
	MinWindow = gen.MinWindow
	MaxWindow = gen.MaxWindow
)

// Detection-threshold regimes of the evaluation.
const (
	// StrictThreshold recognizes only maximally anomalous (foreign)
	// responses as hits — the paper's headline regime ("the detection
	// threshold was set to 1 for all detectors").
	StrictThreshold = 1.0
	// RareSensitiveThreshold additionally counts strong rare-sequence
	// responses as hits. On the evaluation data the Markov detector's
	// rare-transition responses sit at 1-P(excursion) ≈ 0.985, so 0.98
	// turns its coverage from the DW >= AS-1 edge region into the entire
	// space — at the price of false alarms on naturally occurring rare
	// sequences (Section 7).
	RareSensitiveThreshold = 0.98
)

// DefaultConfig returns the paper-faithful evaluation parameters
// (one-million-element training stream, sizes 2-9, windows 2-15).
func DefaultConfig() Config { return core.DefaultConfig() }

// QuickConfig returns a reduced configuration sized for tests and examples.
func QuickConfig() Config { return core.QuickConfig() }

// BuildCorpus synthesizes and verifies the full evaluation data suite.
func BuildCorpus(cfg Config) (*Corpus, error) { return core.BuildCorpus(cfg) }

// DefaultEvalOptions matches the paper's strict regime: only responses of 1
// count as maximal.
func DefaultEvalOptions() EvalOptions { return eval.DefaultOptions() }

// RareSensitiveEvalOptions classifies strong rare-sequence responses as
// maximal, the regime under which the Markov detector "covers the entire
// space under consideration" (paper Section 8).
func RareSensitiveEvalOptions() EvalOptions {
	return EvalOptions{CapableAt: RareSensitiveThreshold, BlindBelow: 1e-9}
}

// NeuralNetEvalOptions is the documented classification regime for the
// neural-network detector, whose softmax outputs approach but never reach
// the exact extremes: responses at or above 0.999 count as maximal and
// responses below 0.001 count as zero.
func NeuralNetEvalOptions() EvalOptions {
	return EvalOptions{CapableAt: 0.999, BlindBelow: 1e-3}
}

// NewGridScheduler returns a bounded pool running at most workers grid
// tasks concurrently; workers < 1 means runtime.NumCPU.
func NewGridScheduler(workers int) *GridScheduler { return eval.NewScheduler(workers) }

// NewSequenceCorpus returns a shared training-database cache over stream
// (copied). Pass it to TrainWithCorpus to train many detectors and window
// widths without rebuilding per-width sequence databases.
func NewSequenceCorpus(stream Stream) *SequenceCorpus { return seq.NewCorpus(stream) }

// EvaluationAlphabet returns the 8-symbol alphabet of the synthetic
// evaluation data.
func EvaluationAlphabet() *Alphabet { return alphabet.MustNew(gen.AlphabetSize) }

// DataSpec selects the synthetic-data construction: the common cycle, the
// alphabet, and the rare symbols carrying the excursions. The default
// (paper) spec uses alphabet 8 with a 6-symbol cycle; alternative specs
// support the alphabet-size-invariance experiments (assign one to
// Config.Gen.Spec).
type DataSpec = gen.Spec

// NewDataSpec returns a construction with the given alphabet size and
// cycle length (cycle 1..cycleLen; symbol 0 and the last symbol are rare).
func NewDataSpec(alphabetSize, cycleLen int) (DataSpec, error) {
	return gen.NewSpec(alphabetSize, cycleLen)
}

// DefaultDataSpec returns the paper's construction.
func DefaultDataSpec() DataSpec { return gen.DefaultSpec() }

// CanonicalMFS returns the canonical minimal foreign sequence of the given
// size (2-9) for the synthetic evaluation data.
func CanonicalMFS(size int) (Stream, error) { return gen.CanonicalMFS(size) }
