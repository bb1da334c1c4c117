// Package runflags is the shared runtime wiring of the command-line tools:
// every long-running command (sweep, perfmap, report, ensemble) registers
// the same flags —
//
//	-metrics-out FILE   write a JSON metrics snapshot (schema adiv.obs/v3:
//	                    counters, gauges, and quantile sketches, span
//	                    durations included in seconds)
//	-progress           emit NDJSON progress events to stderr during the run
//	-status ADDR        serve live introspection (/metrics, /runz, /eventz,
//	                    /alertz, /tracez, /healthz, /debug/pprof) on ADDR
//	                    during the run
//	-trace FILE         record per-event execution spans and export them as a
//	                    Chrome trace_event JSON file (loads in Perfetto) at exit
//	-alerts FILE        journal streaming alarm dispositions as NDJSON
//	                    (schema adiv.alerts/v1) and arm the detector-health
//	                    watchdog (silent / saturated / storm rules over the
//	                    online counters, degradations surfaced on /healthz)
//	-cpuprofile FILE    write a CPU profile (runtime/pprof)
//	-memprofile FILE    write a heap profile at exit
//	-j N                bound concurrent grid work (default runtime.NumCPU)
//	-checkpoint DIR     journal completed grid cells to DIR/grid.journal
//	-resume             continue an existing journal in -checkpoint DIR
//	-shard i/N          evaluate only shard i of an N-way grid partition,
//	                    journaling to DIR/shard-i-of-N/grid.journal
//
// — and threads the resulting *obs.Registry, *obs.Progress, shared
// *eval.Scheduler and *checkpoint.Journal through the corpus builders and
// map builders. With none of the observability flags set the registry,
// tracker, and status server are all nil and every instrumented path is
// disabled at zero cost; likewise a run without -checkpoint threads a nil
// journal.
package runflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"adiv/internal/checkpoint"
	"adiv/internal/eval"
	"adiv/internal/obs"
)

// Flags holds the shared runtime flag values.
type Flags struct {
	MetricsOut string
	Progress   bool
	// Status is the -status listen address; empty disables the embedded
	// introspection server.
	Status string
	// Trace is the -trace Chrome trace output path; empty disables
	// execution tracing.
	Trace string
	// Alerts is the -alerts NDJSON alert-journal path; empty disables
	// alert journaling and the detector-health watchdog.
	Alerts     string
	CPUProfile string
	MemProfile string
	// Jobs is the -j bound on concurrent grid tasks (row trainings and
	// cell evaluations across every performance map the command builds).
	Jobs int
	// Checkpoint is the -checkpoint journal directory; empty disables
	// cell journaling.
	Checkpoint string
	// Resume is the -resume opt-in to continue an existing journal.
	Resume bool
	// Shard is the -shard worker identity, "i/N" (1-based): this process
	// evaluates only the grid cells checkpoint.ShardOf assigns to shard i-1
	// of N, journaling them under -checkpoint DIR/shard-i-of-N. Empty means
	// the run covers the whole grid. checkpoint.Merge reassembles the shard
	// journals into DIR/grid.journal for the final rendering run.
	Shard string
}

// Register adds the shared runtime flags to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot (schema "+obs.SchemaVersion+") to this file at exit")
	fs.BoolVar(&f.Progress, "progress", false, "emit NDJSON progress events to stderr during the run")
	fs.StringVar(&f.Status, "status", "", "serve live run introspection (/metrics, /runz, /eventz, /healthz, /debug/pprof) on this address, e.g. 127.0.0.1:6060 (:0 picks a free port, announced as statusAddr in run.start)")
	fs.StringVar(&f.Trace, "trace", "", "record per-event execution spans and write a Chrome trace_event JSON file (open in Perfetto or chrome://tracing) at exit")
	fs.StringVar(&f.Alerts, "alerts", "", "journal streaming alarm dispositions to this file as NDJSON (schema "+obs.AlertSchemaVersion+") and arm the detector-health watchdog; served live at /alertz under -status")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.IntVar(&f.Jobs, "j", runtime.NumCPU(), "worker goroutines for grid evaluation (shared across all maps of the run)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "journal completed grid cells to DIR/grid.journal so an interrupted run can resume (see -resume)")
	fs.BoolVar(&f.Resume, "resume", false, "resume from the journal in -checkpoint DIR: journaled cells replay bit-identically, remaining cells run live")
	fs.StringVar(&f.Shard, "shard", "", "evaluate shard i of an N-way grid partition, format i/N with 1 <= i <= N; requires -checkpoint, journals to DIR/shard-i-of-N/grid.journal")
	return f
}

// Run is one observed command execution. Metrics is nil unless -metrics-out,
// -progress, or -status enabled observation; instrumented callees accept
// nil.
type Run struct {
	// Metrics is the run's registry, or nil when observation is disabled.
	Metrics *obs.Registry

	flags                  Flags
	shardIndex, shardCount int // parsed -shard identity; 0/0 unsharded
	announce               *obs.EventLog
	cpu                    *os.File
	schedOnce              sync.Once
	sched                  *eval.Scheduler

	progress *obs.Progress
	ring     *obs.EventRing
	status   *obs.Server
	journal  *checkpoint.Journal
	tracer   *obs.Tracer

	alerts     *obs.AlertJournal
	alertsFile *os.File
	watchdog   *obs.Watchdog
	watchStop  chan struct{}
	watchDone  sync.WaitGroup
}

// Alerts returns the run's structured alert journal, or nil when -alerts is
// unset — journal methods are nil-safe, so drivers attach it unconditionally
// (Alarmer.SetJournal / VetoPipeline.SetJournal accept the nil).
func (r *Run) Alerts() *obs.AlertJournal {
	if r == nil {
		return nil
	}
	return r.alerts
}

// AlertsPath returns the -alerts journal path, or "" when unset — drivers
// name it in their output so the operator knows what to hand diagnose.
func (r *Run) AlertsPath() string {
	if r == nil {
		return ""
	}
	return r.flags.Alerts
}

// Watchdog returns the run's detector-health watchdog, or nil when -alerts
// is unset. The default rules watch the shared online counters —
//
//	silent:alarm-stream   online/symbols stopped after having flowed
//	saturated:alarm-rate  online/alarms sustained above watchSaturatedPerTick
//	storm:alarm-storm     online/alarms burst of watchStormBurst in one tick
//
// — and drivers may add per-family rules before the stream starts. The run
// ticks the watchdog every watchTickInterval on a background goroutine;
// firings land as watch.* events on the run's event stream and degrade
// /healthz until they clear.
func (r *Run) Watchdog() *obs.Watchdog {
	if r == nil {
		return nil
	}
	return r.watchdog
}

// Watchdog defaults: the tick cadence and the rule bounds over the shared
// online counters. The bounds are deliberately loose — the watchdog flags
// pathologies (a detector gone quiet, an alarm storm drowning the operator),
// not ordinary detection activity.
const (
	watchTickInterval    = time.Second
	watchSilentWindows   = 5   // ticks of silence after activity
	watchSaturatedPer    = 100 // alarms per tick, sustained
	watchSaturatedEpochs = 3   // consecutive over-bound ticks
	watchStormBurst      = 500 // alarms in a single tick
)

// Tracer returns the run's execution tracer, or nil when -trace is unset —
// tracer methods are nil-safe, so callers wire it unconditionally.
func (r *Run) Tracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Shard returns the run's parsed -shard identity as a 1-based (index, count)
// pair, or (0, 0) when the run covers the whole grid. Drivers assign the pair
// to EvalOptions.ShardIndex/ShardCount on every map of the run.
func (r *Run) Shard() (index, count int) {
	if r == nil {
		return 0, 0
	}
	return r.shardIndex, r.shardCount
}

// parseShard parses a -shard value "i/N" into its 1-based (index, count)
// pair; an empty value is the unsharded (0, 0).
func parseShard(s string) (index, count int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if n, _ := fmt.Sscanf(s, "%d/%d", &index, &count); n != 2 || fmt.Sprintf("%d/%d", index, count) != s {
		return 0, 0, fmt.Errorf("runflags: -shard %q: want i/N, e.g. 2/3", s)
	}
	if count < 1 || index < 1 || index > count {
		return 0, 0, fmt.Errorf("runflags: -shard %s: need 1 <= i <= N", s)
	}
	return index, count, nil
}

// Scheduler returns the run's shared grid-work pool, sized by -j and
// created on first use. Every performance map of the run should evaluate on
// this one pool (set it as Options.Scheduler) so concurrent work stays
// bounded across detector families, not merely within each map.
func (r *Run) Scheduler() *eval.Scheduler {
	r.schedOnce.Do(func() {
		r.sched = eval.NewScheduler(r.flags.Jobs)
		r.sched.Instrument(r.Metrics)
	})
	return r.sched
}

// Progress returns the run's grid-progress tracker (set it as
// Options.Progress on every map of the run), or nil when observation is
// disabled — the tracker's methods are nil-safe, so callers wire it
// unconditionally.
func (r *Run) Progress() *obs.Progress {
	if r == nil {
		return nil
	}
	return r.progress
}

// OpenJournal opens (or, under -resume, continues) the run's checkpoint
// journal with the given configuration fingerprint, instruments it against
// the run's registry (ckpt/cells_replayed, ckpt/cells_appended,
// ckpt/bytes), and announces a ckpt.open event carrying the journal path
// and how many cells it recovered. It returns (nil, nil) when -checkpoint
// is unset — eval's journal paths are nil-safe, so drivers assign the
// result unconditionally. Call it once the corpus exists (the fingerprint
// embeds the corpus hash) and set the journal as EvalOptions.Checkpoint on
// every map of the run; Close closes it.
// Under -shard i/N the journal lives in DIR/shard-i-of-N and its fingerprint
// carries the shard qualifier, so one shard's journal can never be resumed as
// another shard's (or as the whole grid's) by mistake; checkpoint.Merge strips
// the qualifier when it reassembles DIR/grid.journal.
func (r *Run) OpenJournal(fp checkpoint.Fingerprint) (*checkpoint.Journal, error) {
	if r == nil || r.flags.Checkpoint == "" {
		return nil, nil
	}
	dir := r.flags.Checkpoint
	if r.shardCount > 0 {
		dir = filepath.Join(dir, checkpoint.ShardDirName(r.shardIndex, r.shardCount))
		fp = checkpoint.WithShard(fp, r.shardIndex, r.shardCount)
	}
	j, err := checkpoint.Open(dir, fp, r.flags.Resume)
	if err != nil {
		return nil, err
	}
	j.Instrument(r.Metrics)
	r.journal = j
	if preserved := j.CorruptPath(); preserved != "" {
		r.Announce("ckpt.corrupt", obs.Fields{
			"preserved": preserved,
			"journal":   j.Path(),
		})
	}
	fields := obs.Fields{
		"journal": j.Path(),
		"resumed": j.Resumed(),
	}
	if label := checkpoint.ShardLabel(j.Fingerprint()); label != "" {
		fields["shard"] = label
	}
	r.Announce("ckpt.open", fields)
	return j, nil
}

// StatusAddr returns the bound address of the run's status server, or ""
// when -status is unset.
func (r *Run) StatusAddr() string {
	if r == nil {
		return ""
	}
	return r.status.Addr()
}

// Start begins an observed run: it creates the metrics registry and
// progress tracker (when -metrics-out, -progress, or -status asked for
// observation), attaches the NDJSON progress log, binds the -status
// introspection server, and starts CPU profiling. announceW receives
// run-level announcement events (run.start, run.done) regardless of
// -progress — the event log is how commands state their active
// configuration instead of running silently; pass os.Stderr from main.
func (f *Flags) Start(announceW io.Writer) (*Run, error) {
	if f.Resume && f.Checkpoint == "" {
		return nil, fmt.Errorf("runflags: -resume requires -checkpoint DIR")
	}
	shardIndex, shardCount, err := parseShard(f.Shard)
	if err != nil {
		return nil, err
	}
	if shardCount > 0 && f.Checkpoint == "" {
		// A shard's only output is its journal slice — without -checkpoint
		// the work would evaporate and the partial map it renders would be
		// mistaken for the whole grid.
		return nil, fmt.Errorf("runflags: -shard requires -checkpoint DIR (the shard's results live in its journal)")
	}
	r := &Run{flags: *f, shardIndex: shardIndex, shardCount: shardCount, announce: obs.NewEventLog(announceW)}
	if f.MetricsOut != "" || f.Progress || f.Status != "" || f.Trace != "" || f.Alerts != "" {
		r.Metrics = obs.New()
		r.progress = obs.NewProgress()
		r.progress.AttachEvents(r.Metrics)
		var sinks []io.Writer
		if f.Progress {
			sinks = append(sinks, announceW)
		}
		if f.Status != "" {
			// /eventz serves the tail of the same NDJSON stream -progress
			// prints, whether or not -progress is also set.
			r.ring = obs.NewEventRing(obs.DefaultEventRingLines)
			sinks = append(sinks, r.ring)
		}
		switch len(sinks) {
		case 0:
		case 1:
			r.Metrics.SetEventLog(obs.NewEventLog(sinks[0]))
		default:
			r.Metrics.SetEventLog(obs.NewEventLog(io.MultiWriter(sinks...)))
		}
		if f.Trace != "" {
			r.tracer = obs.NewTracer(obs.DefaultTraceSpans)
			r.tracer.Instrument(r.Metrics)
			if len(sinks) > 0 {
				// Mirror completed spans onto the NDJSON event stream (the
				// one -progress prints and /eventz tails) so a live tail sees
				// spans as they finish, not only at export time.
				reg := r.Metrics
				r.tracer.SetSink(func(ev obs.SpanEvent) {
					reg.Event("trace.span", obs.Fields{
						"name": ev.Name,
						"cat":  ev.Cat,
						"lane": ev.Lane,
						"us":   ev.Dur.Microseconds(),
					})
				})
			}
			r.Metrics.SetTracer(r.tracer)
		}
	}
	if f.Alerts != "" {
		af, err := os.Create(f.Alerts)
		if err != nil {
			return nil, fmt.Errorf("runflags: creating -alerts journal: %w", err)
		}
		r.alertsFile = af
		r.alerts = obs.NewAlertJournal(af)
		r.watchdog = obs.NewWatchdog(r.Metrics)
		r.watchdog.AddSilent("alarm-stream", "online/symbols", watchSilentWindows)
		r.watchdog.AddSaturated("alarm-rate", "online/alarms", watchSaturatedPer, watchSaturatedEpochs)
		r.watchdog.AddStorm("alarm-storm", "online/alarms", watchStormBurst)
		r.watchStop = make(chan struct{})
		r.watchDone.Add(1)
		go func(wd *obs.Watchdog, stop <-chan struct{}) {
			defer r.watchDone.Done()
			tick := time.NewTicker(watchTickInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					wd.Tick()
				}
			}
		}(r.watchdog, r.watchStop)
	}
	if f.Status != "" {
		srv, err := obs.StartServer(f.Status, obs.Endpoints{
			Registry: r.Metrics,
			Progress: r.progress,
			Events:   r.ring,
			Tracer:   r.tracer,
			Alerts:   r.alerts,
			Watchdog: r.watchdog,
		})
		if err != nil {
			r.stopWatchdog()
			return nil, fmt.Errorf("runflags: binding -status %s: %w", f.Status, err)
		}
		r.status = srv
	}
	if f.CPUProfile != "" {
		cpu, err := os.Create(f.CPUProfile)
		if err != nil {
			r.stopWatchdog()
			r.status.Close() //nolint:errcheck // unwinding a failed Start
			return nil, fmt.Errorf("runflags: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			r.stopWatchdog()
			r.status.Close() //nolint:errcheck // unwinding a failed Start
			return nil, fmt.Errorf("runflags: starting CPU profile: %w", err)
		}
		r.cpu = cpu
	}
	return r, nil
}

// stopWatchdog halts the watchdog ticker goroutine. Safe to call more than
// once; a run without -alerts has no goroutine and this is a no-op.
func (r *Run) stopWatchdog() {
	if r.watchStop != nil {
		close(r.watchStop)
		r.watchDone.Wait()
		r.watchStop = nil
	}
}

// Announce emits a run-level event to the announcement log (always on,
// unlike -progress-gated cell events). The run.start event is augmented
// with the status server's bound address (so a :0-bound server is
// reachable) and its fields are retained as the /runz run configuration.
func (r *Run) Announce(event string, fields obs.Fields) {
	if r == nil {
		return
	}
	if event == "run.start" {
		extra := obs.Fields{}
		if addr := r.status.Addr(); addr != "" {
			extra["statusAddr"] = addr
		}
		if r.shardCount > 0 {
			extra["shard"] = fmt.Sprintf("%d/%d", r.shardIndex, r.shardCount)
			r.progress.SetShard(fmt.Sprintf("%d/%d", r.shardIndex, r.shardCount))
		}
		if len(extra) > 0 {
			augmented := make(obs.Fields, len(fields)+len(extra))
			for k, v := range fields {
				augmented[k] = v
			}
			for k, v := range extra {
				augmented[k] = v
			}
			fields = augmented
		}
		r.progress.SetRunInfo(fields)
	}
	r.announce.Emit(event, fields)
}

// writeHeap is the heap-profile writer; a package variable so the teardown
// regression test can observe when in the Close sequence it runs.
var writeHeap = writeHeapProfile

// Close finishes the run: stops the CPU profile, drains the status server,
// writes the heap profile, exports the Chrome trace, closes the checkpoint
// journal, writes the metrics snapshot, and announces run.done.
// The status server shuts down BEFORE the heap profile is captured — while
// the server is up its connection and ring buffers are live heap, and a
// profile taken under them misattributes the run's own allocations; the
// drain also bounds the window where a scrape races teardown. Safe to call
// once; use with a deferred error join in run functions.
func (r *Run) Close() error {
	if r == nil {
		return nil
	}
	var errs []error
	if r.cpu != nil {
		pprof.StopCPUProfile()
		if err := r.cpu.Close(); err != nil {
			errs = append(errs, fmt.Errorf("runflags: closing CPU profile: %w", err))
		}
		r.cpu = nil
	}
	// The watchdog gets one final tick (so alarms raised since the last
	// wall-clock tick still register) before its goroutine stops; the alert
	// journal file closes only after the status server has drained, so a
	// late /alertz scrape never races the close.
	if r.watchdog != nil {
		r.watchdog.Tick()
		r.stopWatchdog()
	}
	if r.status != nil {
		if err := r.status.Close(); err != nil {
			errs = append(errs, fmt.Errorf("runflags: draining status server: %w", err))
		}
		r.status = nil
	}
	if r.alertsFile != nil {
		if err := r.alertsFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("runflags: closing -alerts journal: %w", err))
		}
		r.alertsFile = nil
	}
	if r.flags.MemProfile != "" {
		if err := writeHeap(r.flags.MemProfile); err != nil {
			errs = append(errs, err)
		}
	}
	done := obs.Fields{}
	if r.flags.Trace != "" && r.tracer != nil {
		if err := r.tracer.WriteChromeFile(r.flags.Trace); err != nil {
			errs = append(errs, err)
		} else {
			total, dropped := r.tracer.Stats()
			done["traceOut"] = r.flags.Trace
			done["traceSpans"] = total
			if dropped > 0 {
				done["traceDropped"] = dropped
			}
		}
		r.tracer = nil
	}
	if r.journal != nil {
		done["journal"] = r.journal.Path()
		done["journalCells"] = r.journal.Cells()
		if err := r.journal.Close(); err != nil {
			errs = append(errs, err)
		}
		r.journal = nil
	}
	if r.flags.Alerts != "" && r.alerts != nil {
		done["alertsOut"] = r.flags.Alerts
		done["alertsRecords"] = r.alerts.Total()
		if deg := r.watchdog.Degraded(); len(deg) > 0 {
			done["watchdog"] = deg
		}
	}
	if r.flags.MetricsOut != "" && r.Metrics != nil {
		if err := r.Metrics.WriteSnapshotFile(r.flags.MetricsOut); err != nil {
			errs = append(errs, err)
		} else {
			done["metricsOut"] = r.flags.MetricsOut
		}
	}
	r.Announce("run.done", done)
	return errors.Join(errs...)
}

// writeHeapProfile records an up-to-date heap profile at path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("runflags: %w", err)
	}
	runtime.GC() // materialize up-to-date allocation statistics
	werr := pprof.WriteHeapProfile(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("runflags: writing heap profile: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("runflags: closing heap profile: %w", cerr)
	}
	return nil
}
