package serve

import (
	"adiv/internal/alphabet"
	"adiv/internal/online"
)

// TenantScorer is the per-tenant detection unit the server routes to.
// Implementations wrap the online package's streaming components: per-stream
// state over trained models shared read-only by every tenant. They are
// recycled across tenants via Reset, which must leave no trace of the
// previous stream. None are safe for concurrent use — the router pins each
// tenant to one shard to guarantee serial access.
type TenantScorer interface {
	// PushBatch scores one batch in order, returning the window responses
	// that became ready and how many alarms the batch raised. Implementations
	// that do not expose responses (alarm-only pipelines) return nil.
	PushBatch(syms []alphabet.Symbol) (responses []float64, alarms int, err error)
	// SetTenant stamps the tenant identity into journaled alert records.
	SetTenant(tenant string)
	// Reset clears per-stream state; see online.Scorer.Reset.
	Reset()
}

// ScorerTenant serves raw responses with no alarm thresholding.
type ScorerTenant struct {
	S *online.Scorer
}

func (t ScorerTenant) PushBatch(syms []alphabet.Symbol) ([]float64, int, error) {
	responses, err := t.S.PushAll(syms)
	return responses, 0, err
}

func (t ScorerTenant) SetTenant(string) {}
func (t ScorerTenant) Reset()           { t.S.Reset() }

// AlarmerTenant serves responses plus threshold alarms, journaling each
// raised alarm under the tenant's identity.
type AlarmerTenant struct {
	A *online.Alarmer
}

// PushBatch allocates the responses afresh for every batch: Result.Responses
// outlives the worker's callback in the transports.
func (t AlarmerTenant) PushBatch(syms []alphabet.Symbol) ([]float64, int, error) {
	return t.A.PushBatch(syms, make([]float64, 0, len(syms)))
}

func (t AlarmerTenant) SetTenant(tenant string) { t.A.SetTenant(tenant) }
func (t AlarmerTenant) Reset()                  { t.A.Reset() }

// PipelineTenant serves a veto pipeline: alarms are escalations (primary
// alarms corroborated by the veto family); per-event responses are not
// returned.
type PipelineTenant struct {
	P *online.VetoPipeline
}

func (t PipelineTenant) PushBatch(syms []alphabet.Symbol) ([]float64, int, error) {
	escalated, err := t.P.PushAll(syms)
	return nil, len(escalated), err
}

func (t PipelineTenant) SetTenant(tenant string) { t.P.SetTenant(tenant) }
func (t PipelineTenant) Reset()                  { t.P.Reset() }
