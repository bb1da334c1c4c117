// Package online adapts the batch detectors to streaming deployment: push
// symbols as they arrive, receive the detector's response for each window
// as it completes — the shape a production intrusion-detection pipeline
// consumes, and the shape the paper's detectors originally ran in.
//
// A Scorer is one detector.Stream over the detector's trained, read-only
// model, plus a response ring and telemetry. Every detector family derives
// its batch Score and its stream from one scoring primitive, so a Scorer's
// output is element-for-element identical to scoring the whole stream in
// one batch call, however the stream is split into pushes (a property the
// tests pin bit for bit). The one push primitive is PushBatch: a batch
// costs one stream call, one window-kernel call or belief update per
// symbol, and one round of per-call telemetry (push_latency is observed
// once per call). Push and PushAll are a batch of one and a batch of the
// whole slice.
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

	// sym and resp carry a batch of one for the per-symbol wrappers; as
	// fields they cost no allocation per push.
	sym  [1]alphabet.Symbol
	resp [1]float64

	// Telemetry handles; nil when uninstrumented (the default), costing a
	// single pointer test per push.
	symbols       *obs.Counter
	lastResponse  *obs.Gauge
	pushLatency   *obs.Sketch  // per-call wall latency, seconds
	responsesQ    *obs.Sketch  // per-family response quantiles
	responseCount *obs.Counter // per-family responses, the watchdog's pulse
}

// Instrument records streaming telemetry into reg: the online/symbols
// pushed counter, the online/last_response live gauge (what a /metrics
// scrape of a long-lived streaming deployment reads as "the detector's
// current output"), and the per-family detection-quality sketches —
// online/push_latency/<family> (wall latency in seconds, observed once per
// push call, so a PushBatch of any size is one observation) and
// online/responses_q/<family> (response quantiles) — plus the
// online/responses/<family> counter the silent-detector watchdog rule
// watches. A nil registry disables instrumentation. All telemetry
// preserves the zero-allocation steady-state push contract.
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

// record books a batch's responses into the ring (only the last
// responseRingLen can survive) and, when instrumented, into telemetry.
func (s *Scorer) record(rs []float64) {
	if s.responsesQ != nil && len(rs) > 0 {
		s.lastResponse.Set(rs[len(rs)-1])
		s.responsesQ.ObserveAll(rs)
		s.responseCount.Add(int64(len(rs)))
	}
	if len(rs) > responseRingLen {
		rs = rs[len(rs)-responseRingLen:]
	}
	for _, r := range rs {
		s.ring[s.ringN%responseRingLen] = r
		s.ringN++
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

// PushBatch feeds syms in order and appends to dst the response of every
// window the batch completes: none during the initial fill, then one per
// symbol, the window ending at it. It is the Scorer's one push primitive:
// one stream call, and for instrumented scorers one online/symbols add and
// one push_latency observation per call (time.Now and the telemetry
// updates allocate nothing). With a dst of sufficient capacity a
// steady-state push performs zero allocations.
func (s *Scorer) PushBatch(syms []alphabet.Symbol, dst []float64) ([]float64, error) {
	var start time.Time
	if s.pushLatency != nil {
		start = time.Now()
	}
	n := len(dst)
	s.seen += len(syms)
	s.symbols.Add(int64(len(syms)))
	dst, err := s.stream.Push(syms, dst)
	s.record(dst[n:])
	if s.pushLatency != nil {
		s.pushLatency.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		return dst, fmt.Errorf("online: %w", err)
	}
	return dst, nil
}

// Push feeds one symbol, a batch of one. Once the pushes cover a full
// extent, every push yields the response for the window ending at this
// symbol; ready is false during the initial fill.
func (s *Scorer) Push(sym alphabet.Symbol) (response float64, ready bool, err error) {
	s.sym[0] = sym
	out, err := s.PushBatch(s.sym[:], s.resp[:0])
	if err != nil || len(out) == 0 {
		return 0, false, err
	}
	return out[0], true, nil
}

// PushAll feeds a whole slice as one batch and returns the responses
// produced, one per completed window (nil when none completes) —
// identical to the detector's batch Score of the same data when the Scorer
// starts empty.
func (s *Scorer) PushAll(stream seq.Stream) ([]float64, error) {
	out, err := s.PushBatch(stream, make([]float64, 0, len(stream)))
	if err != nil || len(out) == 0 {
		return nil, err
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

	// raised holds the alarms of the latest PushBatch call, in order, for
	// the Push and PushAll wrappers; reused across calls.
	raised []Alarm
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

// PushBatch feeds syms through the scorer (Scorer.PushBatch), appending
// the responses to dst, and thresholds the appended responses in order:
// each one at or above the threshold raises an alarm at its window start.
// It returns dst and the number of alarms raised; a failed push raises
// none.
func (a *Alarmer) PushBatch(syms []alphabet.Symbol, dst []float64) ([]float64, int, error) {
	n := len(dst)
	dst, err := a.scorer.PushBatch(syms, dst)
	a.raised = a.raised[:0]
	if err != nil {
		return dst, 0, err
	}
	// The last appended response is the window starting extent symbols
	// before the end of the stream so far.
	first := a.scorer.seen - a.scorer.extent - (len(dst) - n - 1)
	for i, r := range dst[n:] {
		if r >= a.threshold {
			a.raise(Alarm{Position: first + i, Response: r})
		}
	}
	return dst, len(a.raised), nil
}

// raise books one alarm: counters, inter-arrival, journal.
func (a *Alarmer) raise(alarm Alarm) {
	a.raised = append(a.raised, alarm)
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
}

// Push feeds one symbol and reports whether it completed an alarming
// window; if so the returned alarm describes it.
func (a *Alarmer) Push(sym alphabet.Symbol) (Alarm, bool, error) {
	_, _, alarm, raised, err := a.PushScored(sym)
	return alarm, raised, err
}

// PushScored feeds one symbol, a batch of one, and returns both the window
// response (the serving tier replies with responses whether or not they
// alarm) and any alarm it raised. ready is false during the initial window
// fill.
func (a *Alarmer) PushScored(sym alphabet.Symbol) (response float64, ready bool, alarm Alarm, raised bool, err error) {
	s := a.scorer
	s.sym[0] = sym
	out, alarms, err := a.PushBatch(s.sym[:], s.resp[:0])
	if err != nil || len(out) == 0 {
		return 0, false, Alarm{}, false, err
	}
	if alarms == 0 {
		return out[0], true, Alarm{}, false, nil
	}
	return out[0], true, a.raised[0], true, nil
}

// PushAll feeds a slice as one batch and collects the alarms raised (nil
// when none).
func (a *Alarmer) PushAll(stream seq.Stream) ([]Alarm, error) {
	_, alarms, err := a.PushBatch(stream, make([]float64, 0, len(stream)))
	if err != nil || alarms == 0 {
		return nil, err
	}
	return append([]Alarm(nil), a.raised...), nil
}

// Reset clears the underlying scorer and the alarm inter-arrival state.
func (a *Alarmer) Reset() {
	a.scorer.Reset()
	a.lastAlarmPos = -1
}
