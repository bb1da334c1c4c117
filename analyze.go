package adiv

import (
	"io"

	"adiv/internal/anomaly"
	"adiv/internal/ensemble"
	"adiv/internal/eval"
	"adiv/internal/inject"
	"adiv/internal/report"
	"adiv/internal/rng"
	"adiv/internal/seq"
	"adiv/internal/stats"
	"adiv/internal/trace"
)

// Combination analysis (paper Section 7).
type (
	// SuppressionResult compares a primary detector alone against the
	// primary gated by a suppressor.
	SuppressionResult = ensemble.SuppressionResult
	// CoverageRelation classifies how one detector's coverage relates to
	// another's (equal / subset / superset / overlapping / disjoint).
	CoverageRelation = ensemble.Relation
	// ROCCurve is a detector's threshold-swept operating characteristic.
	ROCCurve = eval.ROCCurve
	// ROCPoint is one point of an ROC estimate.
	ROCPoint = eval.ROCPoint
)

// CoverageRelation values.
const (
	CoverageEqual       = ensemble.Equal
	CoverageSubsetOf    = ensemble.SubsetOf
	CoverageSupersetOf  = ensemble.SupersetOf
	CoverageOverlapping = ensemble.Overlapping
	CoverageDisjoint    = ensemble.Disjoint
)

// RelateCoverage classifies detector a's coverage relative to detector b's.
func RelateCoverage(a, b *Map) CoverageRelation { return ensemble.Relate(a, b) }

// WriteCoverageRelations renders the pairwise coverage-relation matrix of
// the given maps.
func WriteCoverageRelations(w io.Writer, maps []*Map) error {
	return ensemble.WriteRelationMatrix(w, maps)
}

// ROC evaluates a trained detector over multiple trials at each threshold
// and assembles its operating characteristic.
func ROC(det Detector, placements []Placement, thresholds []float64) (ROCCurve, error) {
	return eval.ROC(det, placements, thresholds)
}

// Voting combiner: k-of-n element-level voting over several detectors.
type (
	// Voter combines trained detectors by k-of-n voting over stream
	// elements.
	Voter = ensemble.Voter
	// VoteStats tallies a voter's output against one placement.
	VoteStats = ensemble.VoteStats
	// Interval is a two-sided confidence interval.
	Interval = stats.Interval
)

// FalseAlarmInterval returns the 95% Wilson score interval for an alarm
// tally's false-alarm rate, so reported rates carry their uncertainty.
func FalseAlarmInterval(s AlarmStats) (Interval, error) {
	return stats.WilsonInterval(s.FalseAlarms, s.Positions, 1.96)
}

// ResponseCorrelation returns the Pearson correlation of two trained
// detectors' response sequences over the same stream — the measurable form
// of "the neural-net detector mimics the Markov detector".
func ResponseCorrelation(a, b Detector, stream Stream) (float64, error) {
	return eval.ResponseCorrelation(a, b, stream)
}

// UnionCoverage combines two performance maps by the better outcome per
// cell: deploy both detectors, alarm on either.
func UnionCoverage(a, b *Map) (*Map, error) { return ensemble.UnionCoverage(a, b) }

// IntersectCoverage combines two performance maps by the worse outcome per
// cell: alarm only when both detectors agree.
func IntersectCoverage(a, b *Map) (*Map, error) { return ensemble.IntersectCoverage(a, b) }

// CoverageGain returns the cells detector b detects that detector a does
// not: the added value of diversity. Empty for Stide+L&B; the DW = AS-1
// edge for Stide+Markov.
func CoverageGain(a, b *Map) [][2]int { return ensemble.Gain(a, b) }

// Suppress runs the trained primary and suppressor detectors over a test
// stream and keeps only the primary's alarms corroborated by the
// suppressor — the paper's Markov-detects / Stide-vetoes pipeline, as a
// fold of VetoPipeline over the whole stream.
func Suppress(primary, suppressor Detector, p Placement, primaryThreshold, suppressorThreshold float64) (SuppressionResult, error) {
	return ensemble.Suppress(primary, suppressor, p, primaryThreshold, suppressorThreshold)
}

// TrainAll trains each detector on the training stream.
func TrainAll(train Stream, dets ...Detector) error { return ensemble.TrainAll(train, dets...) }

// TrainAllWithCorpus trains each detector from a shared training-database
// cache (see TrainWithCorpus), so several detectors at one window reuse a
// single database build.
func TrainAllWithCorpus(dbs *SequenceCorpus, dets ...Detector) error {
	return ensemble.TrainAllCorpus(dbs, dets...)
}

// AssessDetector scores a placement with a trained detector and classifies
// the maximal in-span response (blind / weak / capable).
func AssessDetector(det Detector, p Placement, opts EvalOptions) (Assessment, error) {
	return eval.Assess(det, p, opts)
}

// AssessAlarms tallies hits and false alarms of a trained detector on a
// placement at a detection threshold.
func AssessAlarms(det Detector, p Placement, threshold float64) (AlarmStats, error) {
	return eval.AssessAlarms(det, p, threshold)
}

// Multi-anomaly streams.
type (
	// MultiPlacement is a test stream holding several injected anomalies.
	MultiPlacement = inject.MultiPlacement
	// InjectedEvent locates one anomaly within a multi-anomaly stream.
	InjectedEvent = inject.Event
	// MultiAlarmStats tallies per-event hits and false alarms.
	MultiAlarmStats = eval.MultiAlarmStats
)

// AssessMultiAlarms deploys a trained detector on a multi-anomaly stream
// at a detection threshold.
func AssessMultiAlarms(det Detector, mp MultiPlacement, threshold float64) (MultiAlarmStats, error) {
	return eval.AssessMultiAlarms(det, mp, threshold)
}

// ROCMulti assembles an operating characteristic from one multi-anomaly
// stream (hit rate = fraction of injected events detected per threshold).
func ROCMulti(det Detector, mp MultiPlacement, thresholds []float64) (ROCCurve, error) {
	return eval.ROCMulti(det, mp, thresholds)
}

// SweepThresholds evaluates a trained detector across detection thresholds.
func SweepThresholds(det Detector, p Placement, thresholds []float64) ([]OperatingPoint, error) {
	return eval.Sweep(det, p, thresholds)
}

// InjectAt inserts an anomaly into background data before the given index
// without validating the boundary constraint.
func InjectAt(background, anom Stream, pos int) (Placement, error) {
	return inject.At(background, anom, pos)
}

// ErrNoValidPosition reports that no injection point satisfies the
// boundary-sequence constraint; produce a replacement anomaly and retry.
var ErrNoValidPosition = inject.ErrNoValidPosition

// InjectBoundarySafe searches the background for an injection point whose
// boundary sequences — mixed windows of every width in [minWidth, maxWidth]
// plus their (width+1)-gram contexts — all occur in the indexed training
// stream (the paper's Section 5.4.2 procedure). It returns
// ErrNoValidPosition when the anomaly admits no such point.
func InjectBoundarySafe(trainIx *SequenceIndex, background, anom Stream, minWidth, maxWidth int) (Placement, error) {
	opts := inject.Options{MinWidth: minWidth, MaxWidth: maxWidth, ContextWidths: true}
	return inject.Inject(trainIx, background, anom, opts)
}

// Rendering (the paper's figures as text).

// WriteMap renders a performance map in the layout of Figures 3-6.
func WriteMap(w io.Writer, m *Map) error { return report.WriteMap(w, m) }

// WriteMapCSV emits a performance map as CSV rows.
func WriteMapCSV(w io.Writer, m *Map) error { return report.WriteMapCSV(w, m) }

// WriteIncidentSpan renders the Figure-2 incident-span diagram.
func WriteIncidentSpan(w io.Writer, a *Alphabet, p Placement, width int) error {
	return report.WriteIncidentSpan(w, a, p, width)
}

// WriteSimilarity renders the Figure-7 similarity walkthrough.
func WriteSimilarity(w io.Writer, a *Alphabet, x, y Stream, weights []int, total, maximum int) error {
	return report.WriteSimilarity(w, a, x, y, weights, total, maximum)
}

// WriteSuppression renders a Section-7 suppression comparison.
func WriteSuppression(w io.Writer, r SuppressionResult) error {
	return report.WriteSuppression(w, r)
}

// WriteProfile renders a response-distribution profile as an ASCII
// histogram.
func WriteProfile(w io.Writer, p ResponseProfile) error {
	return report.WriteProfile(w, p)
}

// Quasi-natural traces (Section 4.1 substitution).
type (
	// TraceProfile is a stochastic behavioral profile generating
	// quasi-natural process traces.
	TraceProfile = trace.Profile
	// MFSStats summarizes minimal foreign sequences found in a stream.
	MFSStats = trace.MFSStats
)

// DaemonTraceProfile models a network daemon's system-call stream.
func DaemonTraceProfile() *TraceProfile { return trace.DaemonProfile() }

// ShellTraceProfile models an interactive shell session's command stream.
func ShellTraceProfile() *TraceProfile { return trace.ShellProfile() }

// WebServerTraceProfile models a request-serving worker's event stream.
func WebServerTraceProfile() *TraceProfile { return trace.WebServerProfile() }

// TraceProfiles returns the built-in quasi-natural profiles by name.
func TraceProfiles() map[string]*TraceProfile {
	return map[string]*TraceProfile{
		"daemon":    DaemonTraceProfile(),
		"shell":     ShellTraceProfile(),
		"webserver": WebServerTraceProfile(),
	}
}

// GenerateTrace emits approximately n symbols from a profile with a
// deterministic seed.
func GenerateTrace(p *TraceProfile, seed uint64, n int) (Stream, error) {
	return p.Generate(rng.New(seed), n)
}

// ScanMFS scans a test stream against training data for minimal foreign
// sequences up to maxSize long.
func ScanMFS(train, test Stream, maxSize int) (MFSStats, error) {
	return trace.ScanMFS(seq.NewIndex(train), test, maxSize)
}

// NaturalPlacements locates minimal foreign sequences at their natural
// positions in a test stream and keeps the occurrences whose surroundings
// already satisfy the boundary-sequence constraint for widths
// [minWidth, maxWidth] (plus predictor contexts), ready to evaluate in
// place. limit bounds the number returned (0 = all).
func NaturalPlacements(trainIx *SequenceIndex, test Stream, maxSize, minWidth, maxWidth, limit int) ([]Placement, error) {
	opts := inject.Options{MinWidth: minWidth, MaxWidth: maxWidth, ContextWidths: true}
	return trace.NaturalPlacements(trainIx, test, maxSize, opts, limit)
}

// SynthesizeMFS searches for a minimal foreign sequence of the given size
// with respect to the indexed training stream by the paper's brute-force
// strategy: extend rare occurring sequences until one turns foreign while
// its proper subsequences keep occurring. The returned report carries the
// verified sequence; ErrNoMFSFound is returned when the search exhausts.
func SynthesizeMFS(trainIx *SequenceIndex, size, alphabetSize int, rareCutoff float64, seed uint64) (AnomalyReport, error) {
	return anomaly.Synthesize(trainIx, size, alphabetSize, rareCutoff, rng.New(seed), 0)
}

// VerifyMFS checks a candidate sequence against the indexed training
// stream (foreign / minimal / composed of rare parts).
func VerifyMFS(trainIx *SequenceIndex, candidate Stream, rareCutoff float64) (AnomalyReport, error) {
	return anomaly.Verify(trainIx, candidate, rareCutoff)
}

// ErrNoMFSFound reports an exhausted minimal-foreign-sequence search.
var ErrNoMFSFound = anomaly.ErrNotFound

// NewSequenceIndex builds a multi-width sequence index over a stream.
func NewSequenceIndex(stream Stream) *SequenceIndex { return seq.NewIndex(stream) }
