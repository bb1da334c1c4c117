// Package online adapts the batch detectors to streaming deployment: push
// one symbol at a time, receive the detector's response for each window as
// it completes — the shape a production intrusion-detection pipeline
// consumes, and the shape the paper's detectors originally ran in.
//
// A Scorer is one detector.Stream over the detector's trained, read-only
// model, plus a response ring and telemetry. Every detector family derives
// its batch Score and its stream from one scoring primitive, so a Scorer's
// output is element-for-element identical to scoring the whole stream in
// one batch call (a property the tests pin bit for bit). Each push costs
// one window-kernel call or one belief update; for the detectors in this
// repository that is a handful of map lookups or a small matrix product.
package online

import (
	"errors"
	"fmt"
	"time"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/obs"
	"adiv/internal/seq"
)

// responseRingLen is the capacity of the scorer's recent-response ring:
// enough context for a corroboration window or a status probe, small
// enough to live inline in the Scorer.
const responseRingLen = 64

// Scorer scores a symbol stream incrementally with a trained detector.
// It is not safe for concurrent use; any number of Scorers may share one
// trained detector. A steady-state push performs zero allocations.
type Scorer struct {
	det    detector.Detector
	stream detector.Stream
	extent int
	seen   int

	// ring holds the most recent responses (newest at (ringN-1) mod len),
	// preallocated so recording a response never allocates.
	ring  [responseRingLen]float64
	ringN int

	// Telemetry handles; nil when uninstrumented (the default), costing a
	// single pointer test per push.
	symbols       *obs.Counter
	lastResponse  *obs.Gauge
	pushLatency   *obs.Sketch  // per-push wall latency, seconds
	responsesQ    *obs.Sketch  // per-family response quantiles
	responseCount *obs.Counter // per-family responses, the watchdog's pulse
}

// Instrument records streaming telemetry into reg: the online/symbols
// pushed counter, the online/last_response live gauge (what a /metrics
// scrape of a long-lived streaming deployment reads as "the detector's
// current output"), and the per-family detection-quality sketches — online/push_latency/<family>
// (per-push wall latency in seconds) and online/responses_q/<family>
// (response quantiles) — plus the online/responses/<family> counter the
// silent-detector watchdog rule watches. A nil registry disables
// instrumentation. All telemetry preserves the zero-allocation
// steady-state push contract.
func (s *Scorer) Instrument(reg *obs.Registry) {
	if reg == nil {
		s.symbols, s.lastResponse = nil, nil
		s.pushLatency, s.responsesQ, s.responseCount = nil, nil, nil
		return
	}
	family := s.det.Name()
	s.symbols = reg.Counter("online/symbols")
	s.lastResponse = reg.Gauge("online/last_response")
	s.pushLatency = reg.Sketch("online/push_latency/" + family)
	s.responsesQ = reg.Sketch("online/responses_q/" + family)
	s.responseCount = reg.Counter("online/responses/" + family)
}

// NewScorer opens a stream over a trained detector; it returns
// detector.ErrNotTrained (wrapped) before training.
func NewScorer(det detector.Detector) (*Scorer, error) {
	if det == nil {
		return nil, errors.New("online: nil detector")
	}
	extent := det.Extent()
	if extent < 1 {
		return nil, fmt.Errorf("online: detector %s reports extent %d", det.Name(), extent)
	}
	stream, err := det.NewStream()
	if err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	return &Scorer{det: det, stream: stream, extent: extent}, nil
}

// Detector returns the wrapped detector.
func (s *Scorer) Detector() detector.Detector { return s.det }

// Seen returns the number of symbols pushed since construction or Reset.
func (s *Scorer) Seen() int { return s.seen }

// Reset starts a new stream. The trained model is retained; everything
// per-stream — the detector stream, Seen, and the Recent ring — is
// cleared, so a Reset scorer is observationally identical to a freshly
// constructed one. This is the contract the multi-tenant serving tier's
// free list relies on: a scorer recycled from one tenant to another must
// not leak the previous tenant's ring contents or Seen count. The ring
// slots are zeroed explicitly (not just the logical length) so even a
// future ring-reading bug cannot resurrect another tenant's responses.
func (s *Scorer) Reset() {
	s.stream.Reset()
	s.seen = 0
	s.ringN = 0
	s.ring = [responseRingLen]float64{}
}

// record books a completed window's response into the ring and telemetry.
func (s *Scorer) record(r float64) {
	s.ring[s.ringN%responseRingLen] = r
	s.ringN++
	if s.responsesQ != nil {
		s.lastResponse.Set(r)
		s.responsesQ.Observe(r)
		s.responseCount.Inc()
	}
}

// Recent appends the most recent responses (up to responseRingLen, oldest
// first) to dst and returns it — the live tail a corroboration layer or a
// status probe reads without touching the push path. Recent reflects only
// the current stream: after Reset it returns nothing until new windows
// complete, and it can never surface responses recorded before the Reset
// (the multi-tenant recycling guarantee; see Reset).
func (s *Scorer) Recent(dst []float64) []float64 {
	n := s.ringN
	if n > responseRingLen {
		n = responseRingLen
	}
	for i := 0; i < n; i++ {
		dst = append(dst, s.ring[(s.ringN-n+i)%responseRingLen])
	}
	return dst
}

// Push feeds one symbol. Once the pushes cover a full extent, every push
// yields the response for the window ending at this symbol; ready is false
// during the initial fill. Instrumented scorers additionally observe the
// push's wall latency into the per-family latency sketch (time.Now and
// Sketch.Observe both allocate nothing, so the steady-state contract
// holds).
func (s *Scorer) Push(sym alphabet.Symbol) (response float64, ready bool, err error) {
	if s.pushLatency == nil {
		return s.push(sym)
	}
	start := time.Now()
	response, ready, err = s.push(sym)
	s.pushLatency.Observe(time.Since(start).Seconds())
	return response, ready, err
}

func (s *Scorer) push(sym alphabet.Symbol) (response float64, ready bool, err error) {
	s.seen++
	if s.symbols != nil {
		s.symbols.Inc()
	}
	r, ready, err := s.stream.Step(sym)
	if err != nil {
		return 0, false, fmt.Errorf("online: %w", err)
	}
	if ready {
		s.record(r)
	}
	return r, ready, nil
}

// PushAll feeds a whole slice and returns the responses produced, one per
// completed window — identical to the detector's batch Score of the same
// data when the Scorer starts empty. The response slice is sized once on
// the first completed window, the call's only allocation.
func (s *Scorer) PushAll(stream seq.Stream) ([]float64, error) {
	var out []float64
	for i, sym := range stream {
		r, ready, err := s.Push(sym)
		if err != nil {
			return nil, err
		}
		if ready {
			if out == nil {
				out = make([]float64, 0, len(stream)-i)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// Alarm is one thresholded streaming alarm.
type Alarm struct {
	// Position is the index (in pushed symbols, 0-based) of the first
	// element of the alarming window.
	Position int
	// Response is the response that crossed the threshold.
	Response float64
}

// Alarmer thresholds a Scorer's responses into an alarm stream.
// It is not safe for concurrent use.
type Alarmer struct {
	scorer    *Scorer
	threshold float64
	alarms    *obs.Counter

	// Per-family telemetry and the structured alert journal; all nil when
	// disabled (alarms are rare, so journaling sits off the hot path).
	alarmsFam    *obs.Counter
	interArrival *obs.Sketch // symbol-position gaps between alarms
	lastAlarmPos int
	journal      *obs.AlertJournal

	// tenant stamps journal records in multi-tenant deployments; empty in
	// the single-stream drivers, which keeps their journal lines unchanged.
	tenant string
}

// Instrument records streaming telemetry into reg: the underlying scorer's
// metrics, the online/alarms raised counter (plus the per-family
// online/alarms/<family> counter the saturation watchdog rules watch), the
// deployed detection threshold as the online/threshold gauge, and the
// online/alarm_interarrival/<family> sketch of symbol-position gaps
// between consecutive alarms (position gaps, not wall time, so the
// distribution is deterministic for a given stream). A nil registry
// disables instrumentation.
func (a *Alarmer) Instrument(reg *obs.Registry) {
	a.scorer.Instrument(reg)
	if reg == nil {
		a.alarms, a.alarmsFam, a.interArrival = nil, nil, nil
		return
	}
	family := a.scorer.det.Name()
	a.alarms = reg.Counter("online/alarms")
	a.alarmsFam = reg.Counter("online/alarms/" + family)
	a.interArrival = reg.Sketch("online/alarm_interarrival/" + family)
	reg.Gauge("online/threshold").Set(a.threshold)
}

// SetJournal attaches a structured alert journal: every alarm this Alarmer
// raises is appended as a DispositionRaised record. A nil journal detaches.
func (a *Alarmer) SetJournal(j *obs.AlertJournal) {
	a.journal = j
}

// SetTenant sets the tenant identity stamped into every journal record this
// Alarmer appends — a multi-tenant serving tier journals all tenants into
// one file and the tenant field is what keeps their alert streams apart.
// Empty (the default) omits the field, preserving the single-stream
// drivers' journal shape. Reset keeps the tenant until re-set, so the
// serving tier re-stamps every recycled Alarmer.
func (a *Alarmer) SetTenant(tenant string) {
	a.tenant = tenant
}

// Scorer returns the underlying stream scorer (for Seen/Recent probes).
func (a *Alarmer) Scorer() *Scorer { return a.scorer }

// Threshold returns the deployed detection threshold.
func (a *Alarmer) Threshold() float64 { return a.threshold }

// NewAlarmer wraps a trained detector with a detection threshold.
func NewAlarmer(det detector.Detector, threshold float64) (*Alarmer, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("online: threshold %v outside (0,1]", threshold)
	}
	scorer, err := NewScorer(det)
	if err != nil {
		return nil, err
	}
	return &Alarmer{scorer: scorer, threshold: threshold, lastAlarmPos: -1}, nil
}

// Push feeds one symbol and reports whether it completed an alarming
// window; if so the returned alarm describes it.
func (a *Alarmer) Push(sym alphabet.Symbol) (Alarm, bool, error) {
	_, _, alarm, raised, err := a.PushScored(sym)
	return alarm, raised, err
}

// PushScored feeds one symbol and returns both the window response (the
// serving tier replies with responses whether or not they alarm) and any
// alarm it raised. ready is false during the initial window fill.
func (a *Alarmer) PushScored(sym alphabet.Symbol) (response float64, ready bool, alarm Alarm, raised bool, err error) {
	r, ready, err := a.scorer.Push(sym)
	if err != nil || !ready || r < a.threshold {
		return r, ready, Alarm{}, false, err
	}
	alarm = Alarm{
		Position: a.scorer.Seen() - a.scorer.extent,
		Response: r,
	}
	if a.alarms != nil {
		a.alarms.Inc()
		a.alarmsFam.Inc()
		if a.lastAlarmPos >= 0 {
			a.interArrival.Observe(float64(alarm.Position - a.lastAlarmPos))
		}
	}
	a.lastAlarmPos = alarm.Position
	a.journal.Append(obs.AlertRecord{
		Tenant:      a.tenant,
		Position:    alarm.Position,
		Detector:    a.scorer.det.Name(),
		Score:       alarm.Response,
		Threshold:   a.threshold,
		Disposition: obs.DispositionRaised,
	})
	return r, true, alarm, true, nil
}

// PushAll feeds a slice and collects the alarms raised.
func (a *Alarmer) PushAll(stream seq.Stream) ([]Alarm, error) {
	var out []Alarm
	for _, sym := range stream {
		alarm, raised, err := a.Push(sym)
		if err != nil {
			return nil, err
		}
		if raised {
			out = append(out, alarm)
		}
	}
	return out, nil
}

// Reset clears the underlying scorer and the alarm inter-arrival state.
func (a *Alarmer) Reset() {
	a.scorer.Reset()
	a.lastAlarmPos = -1
}
