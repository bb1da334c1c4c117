// Package ensemble implements the detector-combination analysis of the
// paper's Section 7: what diversity does and does not buy.
//
// Two instruments are provided. Coverage algebra combines per-detector
// performance maps (union for "deploy both, alarm on either", intersection
// for "alarm only when both agree") and measures the gain one detector adds
// to another — the paper's findings that Stide's coverage is a subset of the
// Markov detector's, and that Stide+L&B yields no improvement at all.
// Alarm suppression implements the paper's operational recipe: use the
// rare-sensitive Markov detector to detect, and Stide — which only ever
// alarms on foreign sequences — to veto the Markov detector's rare-sequence
// false alarms.
package ensemble

import (
	"fmt"

	"adiv/internal/detector"
	"adiv/internal/eval"
	"adiv/internal/inject"
	"adiv/internal/online"
	"adiv/internal/seq"
)

// UnionCoverage combines two performance maps cell-wise by the better
// outcome: the coverage of running both detectors and alarming when either
// registers a maximal response.
func UnionCoverage(a, b *eval.Map) (*eval.Map, error) {
	return mergeCoverage(a, b, func(x, y eval.Outcome) eval.Outcome {
		if x >= y {
			return x
		}
		return y
	})
}

// IntersectCoverage combines two performance maps cell-wise by the worse
// outcome: the coverage of alarming only when both detectors register a
// maximal response.
func IntersectCoverage(a, b *eval.Map) (*eval.Map, error) {
	return mergeCoverage(a, b, func(x, y eval.Outcome) eval.Outcome {
		if x <= y {
			return x
		}
		return y
	})
}

func mergeCoverage(a, b *eval.Map, pick func(x, y eval.Outcome) eval.Outcome) (*eval.Map, error) {
	if a.MinSize != b.MinSize || a.MaxSize != b.MaxSize ||
		a.MinWindow != b.MinWindow || a.MaxWindow != b.MaxWindow {
		return nil, fmt.Errorf("ensemble: maps cover different grids: %s [%d,%d]x[%d,%d] vs %s [%d,%d]x[%d,%d]",
			a.Detector, a.MinSize, a.MaxSize, a.MinWindow, a.MaxWindow,
			b.Detector, b.MinSize, b.MaxSize, b.MinWindow, b.MaxWindow)
	}
	m, err := eval.NewMap(a.Detector+"+"+b.Detector, a.MinSize, a.MaxSize, a.MinWindow, a.MaxWindow)
	if err != nil {
		return nil, err
	}
	for size := a.MinSize; size <= a.MaxSize; size++ {
		for window := a.MinWindow; window <= a.MaxWindow; window++ {
			ca, cb := a.At(size, window), b.At(size, window)
			if ca.Outcome == eval.Undefined && cb.Outcome == eval.Undefined {
				continue
			}
			out := pick(ca.Outcome, cb.Outcome)
			resp := ca.MaxResponse
			if cb.MaxResponse > resp {
				resp = cb.MaxResponse
			}
			if err := m.Set(eval.Assessment{
				Detector:    m.Detector,
				Window:      window,
				AnomalySize: size,
				MaxResponse: resp,
				Outcome:     out,
			}); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// Gain returns the cells where adding detector b to detector a turns a
// non-detection into a detection: cells Capable in b but not in a. An empty
// gain is the paper's Stide+L&B null result; a gain confined to the
// DW = AS-1 diagonal is its Stide+Markov edge result.
func Gain(a, b *eval.Map) [][2]int {
	var out [][2]int
	for _, cell := range b.DetectionRegion() {
		if a.Outcome(cell[0], cell[1]) != eval.Capable {
			out = append(out, cell)
		}
	}
	return out
}

// SuppressionResult compares a primary detector alone against the primary
// gated by a suppressor, on one test stream with one injected anomaly.
type SuppressionResult struct {
	// Primary and Suppressed are the alarm statistics before and after
	// gating. Alarm positions of the two detectors are matched by overlap
	// of the stream elements they cover.
	Primary    eval.AlarmStats
	Suppressed eval.AlarmStats
}

// Suppress runs the primary and suppressor detectors (already trained) over
// the placement's stream at their respective thresholds and keeps only the
// primary's alarms that overlap some suppressor alarm — the paper's "alarms
// raised by the Markov-based detector, and not raised by Stide, may be
// ignored as false alarms". The gated side is a fold of the streaming
// online.VetoPipeline over the whole stream, so batch and streaming
// suppression are one rule: its escalated alarms are the survivors.
func Suppress(primary, suppressor detector.Detector, p inject.Placement, primaryThreshold, suppressorThreshold float64) (SuppressionResult, error) {
	before, err := eval.AssessAlarms(primary, p, primaryThreshold)
	if err != nil {
		return SuppressionResult{}, err
	}
	pipe, err := online.NewVetoPipeline(primary, suppressor, primaryThreshold, suppressorThreshold)
	if err != nil {
		return SuppressionResult{}, fmt.Errorf("ensemble: %w", err)
	}
	escalated, err := pipe.PushAll(p.Stream)
	if err != nil {
		return SuppressionResult{}, err
	}
	lo, hi, _ := p.IncidentSpan(primary.Extent()) // non-empty: AssessAlarms checked it
	after := eval.AlarmStats{
		Detector:  primary.Name() + "&" + suppressor.Name(),
		Window:    primary.Window(),
		Threshold: primaryThreshold,
		Positions: before.Positions,
	}
	for _, e := range escalated {
		if e.Primary.Position >= lo && e.Primary.Position <= hi {
			after.SpanAlarms++
		} else {
			after.FalseAlarms++
		}
	}
	after.Hit = after.SpanAlarms > 0
	return SuppressionResult{Primary: before, Suppressed: after}, nil
}

// TrainAll trains each detector on the training stream, failing on the
// first error. It is a convenience for the combination experiments, which
// deploy several detectors on identical data.
func TrainAll(train seq.Stream, dets ...detector.Detector) error {
	for _, d := range dets {
		if err := d.Train(train); err != nil {
			return fmt.Errorf("ensemble: training %s(DW=%d): %w", d.Name(), d.Window(), err)
		}
	}
	return nil
}

// TrainAllCorpus is TrainAll over a shared training-database cache: every
// detector fetches its per-width databases from dbs (built at most once per
// width) instead of rebuilding them — the combination experiments train
// several detectors at one window on identical data, so the saving is a
// full stream pass per extra detector.
func TrainAllCorpus(dbs *seq.Corpus, dets ...detector.Detector) error {
	for _, d := range dets {
		if err := detector.TrainWith(d, dbs); err != nil {
			return fmt.Errorf("ensemble: training %s(DW=%d): %w", d.Name(), d.Window(), err)
		}
	}
	return nil
}
