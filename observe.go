package adiv

import (
	"io"

	"adiv/internal/core"
	"adiv/internal/detector"
	"adiv/internal/obs"
)

// Observability: every long batch run in this repository — corpus
// synthesis, dozens of detector trainings, the 8×14 evaluation grid, the
// streaming pipeline — can record run telemetry into a Metrics registry
// and narrate progress as NDJSON events. The registry's JSON snapshot
// (schema adiv.obs/v3, pinned by a golden test) is the substrate for
// benchmark-trajectory tracking across PRs. All instrumentation is
// disabled by passing a nil registry, at zero cost.
type (
	// Metrics is a registry of counters, gauges, and quantile sketches;
	// timing spans record their durations, in seconds, into the sketch of
	// the span's name. All methods are nil-safe: a nil *Metrics disables
	// instrumentation wherever it is accepted.
	Metrics = obs.Registry
	// EventFields carries the payload of one event.
	EventFields = obs.Fields
	// Progress tracks a run's grid progress (rows, cells, throughput, ETA)
	// for the -status introspection server's /runz endpoint; set one as
	// EvalOptions.Progress on every map of a run. Nil-safe like Metrics.
	Progress = obs.Progress
	// RunStatus is the JSON document /runz serves (schema adiv.runz/v1).
	RunStatus = obs.RunStatus
	// AlertJournal records streaming alarm dispositions as NDJSON (schema
	// adiv.alerts/v1): Alarmers journal raised, a VetoPipeline resolves
	// each to escalated or suppressed. Nil-safe like every obs handle.
	AlertJournal = obs.AlertJournal
	// AlertRecord is one journaled alarm disposition.
	AlertRecord = obs.AlertRecord
	// AlertReport is the offline analysis diagnose -alerts prints:
	// per-family disposition counts, score quantiles, and the replayed
	// watchdog findings.
	AlertReport = obs.AlertReport
	// AlertAnalysisOptions tunes the offline alert analysis; the zero
	// value selects the documented defaults.
	AlertAnalysisOptions = obs.AlertAnalysisOptions
)

// Alert dispositions: every alarm is journaled as raised; a veto pipeline
// later resolves it to escalated (corroborated) or suppressed (expired
// without corroboration).
const (
	DispositionRaised     = obs.DispositionRaised
	DispositionEscalated  = obs.DispositionEscalated
	DispositionSuppressed = obs.DispositionSuppressed
)

// NewAlertJournal returns an alert journal writing NDJSON records to w (a
// nil writer keeps only the in-memory tail /alertz serves).
func NewAlertJournal(w io.Writer) *AlertJournal { return obs.NewAlertJournal(w) }

// ReadAlertsFile parses an NDJSON alert journal, tolerating a torn final
// line from an interrupted run.
func ReadAlertsFile(path string) ([]AlertRecord, error) { return obs.ReadAlertsFile(path) }

// AnalyzeAlerts computes per-family disposition counts, score quantiles,
// and replayed watchdog findings (storm / saturated / silent over symbol
// positions) from journaled alert records.
func AnalyzeAlerts(recs []AlertRecord, opts AlertAnalysisOptions) AlertReport {
	return obs.AnalyzeAlerts(recs, opts)
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.New() }

// ObserveDetector wraps a detector with run telemetry recorded into m:
// per-training durations (train/<name>/dwNN spans), scoring durations
// (score/<name> span) and cumulative throughput in symbols/sec, and the
// response quantiles (responses_q/<name> sketch). A nil registry returns
// the detector unwrapped, so the disabled path costs nothing.
func ObserveDetector(det Detector, m *Metrics) Detector { return detector.Observed(det, m) }

// BuildCorpusObserved is BuildCorpus with run telemetry — synthesis and
// injection spans, corpus.start/corpus.done events — recorded into m (nil
// disables it).
func BuildCorpusObserved(cfg Config, m *Metrics) (*Corpus, error) {
	return core.BuildCorpusObserved(cfg, m)
}
