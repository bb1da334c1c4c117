package online

import (
	"fmt"
	"time"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/obs"
)

// VetoPipeline is the Section-7 suppression recipe, and its one definition:
// a rare-sensitive primary detector raises candidate alarms and a
// foreign-only veto detector corroborates them; only corroborated alarms
// are escalated. A candidate is corroborated when some veto alarm's window
// shares a stream element with its own, so the two detectors may have
// different extents. Batch ensemble.Suppress is a fold of this pipeline
// over a whole stream.
type VetoPipeline struct {
	primary *Alarmer
	veto    *Alarmer

	// pending holds primary alarms still awaiting corroboration in position
	// order (both detectors raise alarms in window order, so it is a FIFO);
	// an alarm expires once the stream has advanced past its covered
	// elements plus the veto's extent.
	pending []Alarm
	// lastVeto is the window start of the latest veto alarm, -1 before the
	// first. Veto windows arrive in position order, so it is the only veto
	// window a new primary alarm can need.
	lastVeto int

	primaryExtent, vetoExtent int
	seen                      int
	suppressed                int

	// Telemetry handles; nil when uninstrumented (the default).
	mSymbols         *obs.Counter
	mPrimary         *obs.Counter
	mEscalated       *obs.Counter
	mSuppressed      *obs.Counter
	mPushLatency     *obs.Sketch // whole-pipeline per-push latency, seconds
	mEscInterArrival *obs.Sketch // symbol-position gaps between escalations
	lastEscalatedPos int
	tracer           *obs.Tracer

	// journal receives escalated/suppressed disposition records; the
	// primary Alarmer journals the matching raised records.
	journal *obs.AlertJournal
	// tenant stamps the pipeline's own journal records; the primary
	// Alarmer stamps its raised records with the same value via SetTenant.
	tenant string
}

// Instrument records pipeline telemetry into reg: symbols pushed, primary
// candidate alarms, escalated (corroborated) alarms, suppressed alarms,
// the online/pipeline/push_latency sketch (whole-pipeline per-push wall
// latency, both detectors plus corroboration), and the
// online/pipeline/escalation_interarrival sketch of symbol-position gaps
// between consecutive escalations. When the registry carries a tracer,
// escalations and suppressions additionally land as instant markers
// (category "alarm") on the execution timeline. A nil registry disables
// instrumentation; the nested Alarmers are instrumented separately (their
// metrics would collide — both scorers share the online/* names).
func (p *VetoPipeline) Instrument(reg *obs.Registry) {
	if reg == nil {
		p.mSymbols, p.mPrimary, p.mEscalated, p.mSuppressed = nil, nil, nil, nil
		p.mPushLatency, p.mEscInterArrival = nil, nil
		p.tracer = nil
		return
	}
	p.mSymbols = reg.Counter("online/pipeline/symbols")
	p.mPrimary = reg.Counter("online/pipeline/primary_alarms")
	p.mEscalated = reg.Counter("online/pipeline/escalated")
	p.mSuppressed = reg.Counter("online/pipeline/suppressed")
	p.mPushLatency = reg.Sketch("online/pipeline/push_latency")
	p.mEscInterArrival = reg.Sketch("online/pipeline/escalation_interarrival")
	p.tracer = reg.Tracer()
}

// SetJournal attaches a structured alert journal to the pipeline and its
// primary Alarmer: the primary journals every candidate as raised, the
// pipeline resolves each candidate to escalated (corroborated) or
// suppressed (expired unanswered), so the journal carries the full
// disposition history and the invariant raised = escalated + suppressed +
// pending holds. The veto detector does not journal — its alarms are
// corroborations, not alerts. A nil journal detaches.
func (p *VetoPipeline) SetJournal(j *obs.AlertJournal) {
	p.journal = j
	p.primary.SetJournal(j)
}

// SetTenant stamps the tenant identity into every journal record the
// pipeline (and its primary Alarmer) appends; see Alarmer.SetTenant.
func (p *VetoPipeline) SetTenant(tenant string) {
	p.tenant = tenant
	p.primary.SetTenant(tenant)
}

// Reset ends the stream and clears all per-stream state — both
// detectors' streams and rings, the pending candidates, the latest veto
// window, and the suppression counter — so a pipeline recycled to a new
// tenant behaves exactly like a freshly constructed one. The stream ended
// unanswered, so each still-pending candidate is first resolved as
// suppressed: journaled under the old tenant and counted in telemetry,
// keeping raised = escalated + suppressed for every closed stream. The
// trained models are retained.
func (p *VetoPipeline) Reset() {
	p.suppress(p.pending)
	p.primary.Reset()
	p.veto.Reset()
	p.pending = p.pending[:0]
	p.lastVeto = -1
	p.seen = 0
	p.suppressed = 0
	p.lastEscalatedPos = -1
}

// Primary returns the primary detector's alarmer.
func (p *VetoPipeline) Primary() *Alarmer { return p.primary }

// Veto returns the veto detector's alarmer.
func (p *VetoPipeline) Veto() *Alarmer { return p.veto }

// EscalatedAlarm is a primary alarm corroborated by the veto detector.
type EscalatedAlarm struct {
	// Primary is the corroborated alarm.
	Primary Alarm
	// VetoPosition is the window start of the corroborating veto alarm:
	// the latest veto window when the primary escalated. A primary raised
	// after overlapping veto alarms names the most recent of them, not
	// the oldest.
	VetoPosition int
}

// NewVetoPipeline wraps two trained detectors with their thresholds.
func NewVetoPipeline(primary, veto detector.Detector, primaryThreshold, vetoThreshold float64) (*VetoPipeline, error) {
	pa, err := NewAlarmer(primary, primaryThreshold)
	if err != nil {
		return nil, fmt.Errorf("online: primary: %w", err)
	}
	va, err := NewAlarmer(veto, vetoThreshold)
	if err != nil {
		return nil, fmt.Errorf("online: veto: %w", err)
	}
	return &VetoPipeline{
		primary:          pa,
		veto:             va,
		primaryExtent:    primary.Extent(),
		vetoExtent:       veto.Extent(),
		lastVeto:         -1,
		lastEscalatedPos: -1,
	}, nil
}

// Push feeds one symbol to both detectors and returns any alarms escalated
// by it (a symbol can complete both a primary and a corroborating veto
// window, or corroborate older pending alarms). Instrumented pipelines
// observe the whole push's wall latency; journaled pipelines append one
// disposition record per escalation.
func (p *VetoPipeline) Push(sym alphabet.Symbol) ([]EscalatedAlarm, error) {
	var start time.Time
	if p.mPushLatency != nil {
		start = time.Now()
	}
	escalated, err := p.push(sym)
	if p.mPushLatency != nil {
		p.mPushLatency.Observe(time.Since(start).Seconds())
	}
	return escalated, err
}

func (p *VetoPipeline) push(sym alphabet.Symbol) ([]EscalatedAlarm, error) {
	p.seen++
	if p.mSymbols != nil {
		p.mSymbols.Inc()
	}
	primaryAlarm, primaryRaised, err := p.primary.Push(sym)
	if err != nil {
		return nil, err
	}
	vetoAlarm, vetoRaised, err := p.veto.Push(sym)
	if err != nil {
		return nil, err
	}

	escalated := p.corroborate(primaryAlarm, primaryRaised, vetoAlarm, vetoRaised)
	p.expire()
	if len(escalated) > 0 {
		if p.mEscalated != nil {
			p.mEscalated.Add(int64(len(escalated)))
		}
		for _, e := range escalated {
			if p.mEscInterArrival != nil {
				if p.lastEscalatedPos >= 0 {
					p.mEscInterArrival.Observe(float64(e.Primary.Position - p.lastEscalatedPos))
				}
				p.lastEscalatedPos = e.Primary.Position
			}
			p.resolve(e.Primary, obs.DispositionEscalated)
			p.tracer.Instant("online/escalated", "alarm",
				obs.TraceAttr{Key: "position", Value: fmt.Sprint(e.Primary.Position)},
				obs.TraceAttr{Key: "vetoPosition", Value: fmt.Sprint(e.VetoPosition)})
		}
	}
	return escalated, nil
}

// corroborate merges one push's alarm outcomes into the pending state and
// returns the alarms escalated by it, in position order. Both detectors
// raise alarms in window order, so a veto alarm at v overlaps exactly the
// pending primaries starting after v-primaryExtent (a suffix of the FIFO),
// and a fresh primary at a overlaps an earlier veto window iff the latest
// one starts after a-vetoExtent. The veto merges first, so a symbol that
// completes both windows corroborates its own primary.
func (p *VetoPipeline) corroborate(primaryAlarm Alarm, primaryRaised bool, vetoAlarm Alarm, vetoRaised bool) []EscalatedAlarm {
	var escalated []EscalatedAlarm
	if vetoRaised {
		p.lastVeto = vetoAlarm.Position
		i := len(p.pending)
		for i > 0 && p.pending[i-1].Position > p.lastVeto-p.primaryExtent {
			i--
		}
		for _, pa := range p.pending[i:] {
			escalated = append(escalated, EscalatedAlarm{Primary: pa, VetoPosition: p.lastVeto})
		}
		p.pending = p.pending[:i]
	}
	if primaryRaised {
		if p.mPrimary != nil {
			p.mPrimary.Inc()
		}
		if p.lastVeto >= 0 && p.lastVeto > primaryAlarm.Position-p.vetoExtent {
			escalated = append(escalated, EscalatedAlarm{Primary: primaryAlarm, VetoPosition: p.lastVeto})
		} else {
			p.pending = append(p.pending, primaryAlarm)
		}
	}
	return escalated
}

// PushAll feeds a slice and collects the escalated alarms.
func (p *VetoPipeline) PushAll(stream []alphabet.Symbol) ([]EscalatedAlarm, error) {
	var out []EscalatedAlarm
	for _, sym := range stream {
		e, err := p.Push(sym)
		if err != nil {
			return nil, err
		}
		out = append(out, e...)
	}
	return out, nil
}

// Suppressed returns the number of primary alarms that expired without
// corroboration so far.
func (p *VetoPipeline) Suppressed() int { return p.suppressed }

// expire suppresses the pending primaries that can no longer overlap a
// new veto window: those starting before the horizon, a prefix of the FIFO.
func (p *VetoPipeline) expire() {
	horizon := p.seen - p.primaryExtent - p.vetoExtent
	i := 0
	for i < len(p.pending) && p.pending[i].Position < horizon {
		i++
	}
	if i > 0 {
		p.suppress(p.pending[:i])
		p.pending = append(p.pending[:0], p.pending[i:]...)
	}
}

// suppress resolves uncorroborated candidates: each is counted and
// journaled as suppressed.
func (p *VetoPipeline) suppress(alarms []Alarm) {
	if len(alarms) == 0 {
		return
	}
	for _, pa := range alarms {
		p.resolve(pa, obs.DispositionSuppressed)
	}
	p.suppressed += len(alarms)
	if p.mSuppressed != nil {
		p.mSuppressed.Add(int64(len(alarms)))
	}
	p.tracer.Instant("online/suppressed", "alarm",
		obs.TraceAttr{Key: "count", Value: fmt.Sprint(len(alarms))})
}

// resolve journals a candidate's disposition under the pipeline's tenant.
func (p *VetoPipeline) resolve(a Alarm, disposition string) {
	p.journal.Append(obs.AlertRecord{
		Tenant:      p.tenant,
		Position:    a.Position,
		Detector:    p.primary.scorer.det.Name(),
		Score:       a.Response,
		Threshold:   p.primary.threshold,
		Disposition: disposition,
	})
}
