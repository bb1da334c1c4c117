package detector

import (
	"fmt"

	"adiv/internal/obs"
	"adiv/internal/seq"
)

// Observed wraps a detector with run telemetry recorded into reg:
//
//   - span  train/<name>/dwNN          — per-training duration
//   - span  score/<name>               — per-call scoring duration; when a
//     tracer is attached each Score call also records a trace span
//     (category "score", detector attribute) on its own async track
//   - ctr   symbols/<name>             — symbols scored
//   - gauge throughput_sps/<name>      — cumulative scoring throughput
//   - sketch responses_q/<name>        — response quantiles
//
// Spans record into the sketch of their name, in seconds.
//
// Training carries no trace span of its own: in grid runs the scheduler's
// lane-stamped train task span covers the same interval with worker
// attribution, and a second identical span would double-count the family
// rollups.
//
// A nil registry disables observation entirely: the detector is returned
// unwrapped, so the disabled path has zero overhead by construction.
func Observed(d Detector, reg *obs.Registry) Detector {
	if reg == nil || d == nil {
		return d
	}
	name := d.Name()
	return &observed{
		Detector:   d,
		reg:        reg,
		name:       name,
		trainSpan:  fmt.Sprintf("train/%s/dw%02d", name, d.Window()),
		scoreSpan:  "score/" + name,
		score:      reg.Sketch("score/" + name),
		symbols:    reg.Counter("symbols/" + name),
		throughput: reg.Gauge("throughput_sps/" + name),
		responsesQ: reg.Sketch("responses_q/" + name),
	}
}

// observed decorates a Detector with metrics recording. Train and Score
// delegate to the inner detector; Name/Window/Extent pass through via
// embedding, so evaluation output is unchanged by instrumentation.
// NewStream passes through the same way: streams carry no per-Score
// telemetry, since the online scorer records its own online/* metrics.
type observed struct {
	Detector
	reg        *obs.Registry
	name       string
	trainSpan  string
	scoreSpan  string
	score      *obs.Sketch // the score/<name> span's sketch
	symbols    *obs.Counter
	throughput *obs.Gauge
	responsesQ *obs.Sketch
}

// Unwrap returns the detector being observed.
func (o *observed) Unwrap() Detector { return o.Detector }

func (o *observed) Train(train seq.Stream) error {
	sp := o.reg.Span(o.trainSpan)
	err := o.Detector.Train(train)
	sp.End()
	return err
}

// TrainCorpus times corpus-backed training under the same span as Train and
// dispatches through TrainWith, so wrapping never hides the inner
// detector's fast path (nor invents one: detectors without corpus support
// fall back to Train on the corpus's stream).
func (o *observed) TrainCorpus(c *seq.Corpus) error {
	sp := o.reg.Span(o.trainSpan)
	err := TrainWith(o.Detector, c)
	sp.End()
	return err
}

func (o *observed) Score(test seq.Stream) ([]float64, error) {
	sp := o.reg.SpanTraced(o.scoreSpan, "score")
	sp.SetAttr("detector", o.name)
	responses, err := o.Detector.Score(test)
	sp.End()
	if err != nil {
		return nil, err
	}
	o.symbols.Add(int64(len(test)))
	o.responsesQ.ObserveAll(responses)
	if total := o.score.Sum(); total > 0 {
		o.throughput.Set(float64(o.symbols.Value()) / total)
	}
	return responses, nil
}
