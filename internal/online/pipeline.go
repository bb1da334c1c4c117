package online

import (
	"fmt"
	"time"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/obs"
)

// VetoPipeline is the Section-7 suppression recipe as a reusable streaming
// component: a rare-sensitive primary detector raises candidate alarms and
// a foreign-only veto detector corroborates them; only corroborated alarms
// are escalated. Corroboration is by element overlap within the trailing
// horizon, so the two detectors may have different extents.
type VetoPipeline struct {
	primary *Alarmer
	veto    *Alarmer

	// pending holds primary alarms still awaiting corroboration, oldest
	// first; an alarm expires once the stream has advanced past its
	// covered elements plus the veto's extent.
	pending []Alarm
	// vetoCovered tracks recently veto-alarmed element positions within
	// the horizon.
	vetoCovered []int

	primaryExtent, vetoExtent int
	seen                      int
	suppressed                int

	// Telemetry handles; nil when uninstrumented (the default).
	mSymbols         *obs.Counter
	mPrimary         *obs.Counter
	mEscalated       *obs.Counter
	mSuppressed      *obs.Counter
	mSuppressionRate *obs.Gauge
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
// the running suppression rate (suppressed / primary candidates), the
// online/pipeline/push_latency sketch (whole-pipeline per-push wall
// latency, both detectors plus corroboration), and the
// online/pipeline/escalation_interarrival sketch of symbol-position gaps
// between consecutive escalations. When the registry carries a tracer,
// escalations and suppressions additionally land as instant markers
// (category "alarm") on the execution timeline. A nil registry disables
// instrumentation; the nested Alarmers are instrumented separately (their
// metrics would collide — both scorers share the online/* names).
func (p *VetoPipeline) Instrument(reg *obs.Registry) {
	if reg == nil {
		p.mSymbols, p.mPrimary, p.mEscalated, p.mSuppressed, p.mSuppressionRate = nil, nil, nil, nil, nil
		p.mPushLatency, p.mEscInterArrival = nil, nil
		p.tracer = nil
		return
	}
	p.mSymbols = reg.Counter("online/pipeline/symbols")
	p.mPrimary = reg.Counter("online/pipeline/primary_alarms")
	p.mEscalated = reg.Counter("online/pipeline/escalated")
	p.mSuppressed = reg.Counter("online/pipeline/suppressed")
	p.mSuppressionRate = reg.Gauge("online/pipeline/suppression_rate")
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

// Reset clears all per-stream state — both detectors' streams and
// rings, the pending and veto-coverage horizons, and the suppression
// counter — so a pipeline recycled to a new tenant behaves exactly
// like a freshly constructed one. The trained models are retained.
func (p *VetoPipeline) Reset() {
	p.primary.Reset()
	p.veto.Reset()
	p.pending = p.pending[:0]
	p.vetoCovered = p.vetoCovered[:0]
	p.seen = 0
	p.suppressed = 0
	p.lastEscalatedPos = -1
}

// EscalatedAlarm is a primary alarm corroborated by the veto detector.
type EscalatedAlarm struct {
	// Primary is the corroborated alarm.
	Primary Alarm
	// VetoPosition is the window start of the corroborating veto alarm.
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
			p.journal.Append(obs.AlertRecord{
				Tenant:      p.tenant,
				Position:    e.Primary.Position,
				Detector:    p.primary.scorer.det.Name(),
				Score:       e.Primary.Response,
				Threshold:   p.primary.threshold,
				Disposition: obs.DispositionEscalated,
			})
			p.tracer.Instant("online/escalated", "alarm",
				obs.TraceAttr{Key: "position", Value: fmt.Sprint(e.Primary.Position)},
				obs.TraceAttr{Key: "vetoPosition", Value: fmt.Sprint(e.VetoPosition)})
		}
	}
	return escalated, nil
}

// corroborate merges one push's alarm outcomes into the pending state and
// returns the alarms escalated by it. Whether the fresh primary was
// corroborated is tracked directly: this push's veto window may escalate an
// older pending alarm while the fresh primary is corroborated by an earlier
// veto window still inside the horizon, and both escalations must surface.
func (p *VetoPipeline) corroborate(primaryAlarm Alarm, primaryRaised bool, vetoAlarm Alarm, vetoRaised bool) []EscalatedAlarm {
	var escalated []EscalatedAlarm
	fresh := -1
	if primaryRaised {
		p.pending = append(p.pending, primaryAlarm)
		fresh = len(p.pending) - 1
		if p.mPrimary != nil {
			p.mPrimary.Inc()
		}
	}
	freshEscalated := false
	if vetoRaised {
		p.vetoCovered = append(p.vetoCovered, vetoAlarm.Position)
		// Corroborate pending primaries overlapping this veto window.
		kept := p.pending[:0]
		for i, pa := range p.pending {
			if overlaps(pa.Position, p.primaryExtent, vetoAlarm.Position, p.vetoExtent) {
				escalated = append(escalated, EscalatedAlarm{Primary: pa, VetoPosition: vetoAlarm.Position})
				if i == fresh {
					freshEscalated = true
				}
			} else {
				kept = append(kept, pa)
			}
		}
		p.pending = kept
	}
	if primaryRaised && !freshEscalated {
		// A fresh primary may be corroborated by a recent veto window. It
		// survived the loop above (if any), so it is still pending's last
		// element.
		for _, vp := range p.vetoCovered {
			if overlaps(primaryAlarm.Position, p.primaryExtent, vp, p.vetoExtent) {
				escalated = append(escalated, EscalatedAlarm{Primary: primaryAlarm, VetoPosition: vp})
				p.pending = p.pending[:len(p.pending)-1]
				break
			}
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

// expire drops pending primaries and stale veto windows that can no longer
// overlap anything new.
func (p *VetoPipeline) expire() {
	horizon := p.seen - p.primaryExtent - p.vetoExtent
	kept := p.pending[:0]
	expired := 0
	for _, pa := range p.pending {
		if pa.Position >= horizon {
			kept = append(kept, pa)
		} else {
			p.suppressed++
			expired++
			p.journal.Append(obs.AlertRecord{
				Tenant:      p.tenant,
				Position:    pa.Position,
				Detector:    p.primary.scorer.det.Name(),
				Score:       pa.Response,
				Threshold:   p.primary.threshold,
				Disposition: obs.DispositionSuppressed,
			})
		}
	}
	p.pending = kept
	if expired > 0 {
		if p.mSuppressed != nil {
			p.mSuppressed.Add(int64(expired))
			if candidates := p.mPrimary.Value(); candidates > 0 {
				p.mSuppressionRate.Set(float64(p.mSuppressed.Value()) / float64(candidates))
			}
		}
		p.tracer.Instant("online/suppressed", "alarm",
			obs.TraceAttr{Key: "count", Value: fmt.Sprint(expired)})
	}
	keptVeto := p.vetoCovered[:0]
	for _, vp := range p.vetoCovered {
		if vp >= horizon {
			keptVeto = append(keptVeto, vp)
		}
	}
	p.vetoCovered = keptVeto
}

// overlaps reports whether [aPos, aPos+aExt) and [bPos, bPos+bExt) share an
// element.
func overlaps(aPos, aExt, bPos, bExt int) bool {
	return aPos < bPos+bExt && bPos < aPos+aExt
}
