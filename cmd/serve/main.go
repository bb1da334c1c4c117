// Command serve runs the multi-tenant streaming detection daemon: thousands
// of concurrent symbol streams, each scored by its own stream state over one
// trained detector that every tenant shares, routed across worker shards
// with bounded queues and explicit backpressure.
//
// Usage:
//
//	serve [-http ADDR] [-tcp ADDR] [-detector FAMILY] [-window N]
//	      [-threshold T] [-veto FAMILY] [-veto-window N] [-veto-threshold T]
//	      [-shards N] [-queue N] [-max-batch N] [-train-len N] [-quick]
//	      [-metrics-out FILE] [-progress] [-status ADDR] [-alerts FILE]
//	      [-trace FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// Two transports share one scoring core. POST /v1/push accepts NDJSON lines
// ({"tenant":"t0","symbols":[1,2,3]}), one response line per request; the
// -tcp listener speaks the compact length-prefixed framing in
// internal/serve for load-generator throughput. The detector (and the veto
// detector, if any) is trained once at startup; a tenant is per-stream
// state over it, created on first contact by its shard's worker and recycled
// through that shard's free list when the tenant closes.
//
// Backpressure is explicit: a tenant whose shard queue is full receives
// HTTP 429 or a Busy frame immediately — the daemon never buffers
// unboundedly. On SIGTERM/SIGINT the daemon drains: intake stops (503 /
// Busy "draining"), every accepted batch is scored, responses are
// delivered, then the observation stack flushes (alert journal, metrics
// snapshot, trace export) and the process exits 0 printing the clean-drain
// invariant (accepted == scored).
//
// With -alerts FILE every threshold crossing is journaled per tenant as
// NDJSON (schema adiv.alerts/v1), served live at /alertz under -status, and
// the detector-health watchdog arms. With -veto the per-tenant unit is the
// Section-7 corroboration pipeline instead: alarms are escalations, and the
// journal carries full raised/escalated/suppressed dispositions.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"adiv"
	"adiv/internal/gen"
	"adiv/internal/obs"
	"adiv/internal/online"
	"adiv/internal/runflags"
	"adiv/internal/seq"
	"adiv/internal/serve"
)

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sig
		signal.Stop(sig) // a second signal kills the process
		close(stop)
	}()
	if err := run(os.Stdout, os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// statusTick is how often the live tenant/throughput counters are published
// to /runz.
const statusTick = 500 * time.Millisecond

func run(w io.Writer, args []string, stop <-chan struct{}) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	httpAddr := fs.String("http", "127.0.0.1:8400", "NDJSON ingest listener address (:0 picks a free port, announced as httpAddr in run.start)")
	tcpAddr := fs.String("tcp", "", "optional frame-protocol listener address (:0 picks a free port, announced as tcpAddr)")
	detName := fs.String("detector", adiv.DetectorStide, "detector family per tenant (stide, markov, lb, nn, tstide)")
	window := fs.Int("window", 6, "detector window")
	threshold := fs.Float64("threshold", 1.0, "alarm threshold in (0,1]; 0 serves raw responses without alarming")
	vetoName := fs.String("veto", "", "veto detector family; enables the corroboration pipeline (alarms become escalations)")
	vetoWindow := fs.Int("veto-window", 0, "veto detector window (default: -window)")
	vetoThreshold := fs.Float64("veto-threshold", 1.0, "veto alarm threshold in (0,1]")
	shards := fs.Int("shards", runtime.NumCPU(), "scoring worker shards; each tenant is pinned to one")
	queue := fs.Int("queue", 128, "bounded per-shard queue depth; a full queue rejects with 429/Busy")
	maxBatch := fs.Int("max-batch", 8192, "largest accepted batch, in events")
	trainLen := fs.Int("train-len", 0, "training stream length (0: paper-faithful, or the -quick reduction)")
	quick := fs.Bool("quick", false, "reduced training stream for fast startup")
	obsFlags := runflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := gen.DefaultConfig()
	if *quick {
		cfg.TrainLen = 50_000
	}
	if *trainLen > 0 {
		cfg.TrainLen = *trainLen
	}
	g, err := gen.New(cfg)
	if err != nil {
		return err
	}

	obsRun, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obsRun.Close(); err == nil {
			err = cerr
		}
	}()

	fmt.Fprintf(w, "training corpus (%d symbols)...\n", cfg.TrainLen)
	obsRun.Progress().SetPhase("corpus")
	corpus := seq.NewCorpus(g.Training())
	factory, err := tenantFactory(corpus, *detName, *window, *threshold, *vetoName, *vetoWindow, *vetoThreshold, obsRun.Alerts())
	if err != nil {
		return err
	}

	srv, err := serve.NewServer(serve.Config{
		Shards:       *shards,
		QueueDepth:   *queue,
		MaxBatch:     *maxBatch,
		AlphabetSize: g.Alphabet().Size(),
		NewTenant:    factory,
		Registry:     obsRun.Metrics,
	})
	if err != nil {
		return err
	}

	httpLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return fmt.Errorf("binding -http %s: %w", *httpAddr, err)
	}
	httpSrv := &http.Server{Handler: serve.NewHTTPHandler(srv)}
	httpErr := make(chan error, 1)
	go func() {
		if serr := httpSrv.Serve(httpLn); serr != nil && serr != http.ErrServerClosed {
			httpErr <- serr
		}
	}()

	var tcpSrv *serve.TCPServer
	tcpErr := make(chan error, 1)
	announced := obs.Fields{
		"cmd":       "serve",
		"httpAddr":  httpLn.Addr().String(),
		"detector":  *detName,
		"window":    *window,
		"threshold": *threshold,
		"veto":      *vetoName,
		"shards":    srv.Shards(),
		"queue":     *queue,
		"trainLen":  cfg.TrainLen,
	}
	if *tcpAddr != "" {
		tcpLn, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			return fmt.Errorf("binding -tcp %s: %w", *tcpAddr, err)
		}
		tcpSrv = serve.NewTCPServer(srv, tcpLn)
		announced["tcpAddr"] = tcpSrv.Addr().String()
		go func() {
			if serr := tcpSrv.Serve(); serr != nil {
				tcpErr <- serr
			}
		}()
	}
	obsRun.Announce("run.start", announced)
	fmt.Fprintf(w, "serving: http %s", httpLn.Addr())
	if tcpSrv != nil {
		fmt.Fprintf(w, ", tcp %s", tcpSrv.Addr())
	}
	fmt.Fprintf(w, " (%d shards, queue %d)\n", srv.Shards(), *queue)

	// Publish live serving counters to /runz until shutdown.
	obsRun.Progress().SetPhase("serving")
	tickStop := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		tick := time.NewTicker(statusTick)
		defer tick.Stop()
		for {
			select {
			case <-tickStop:
				return
			case <-tick.C:
				publishStats(obsRun.Progress(), srv.Stats())
			}
		}
	}()

	select {
	case <-stop:
		fmt.Fprintln(w, "signal received, draining...")
	case err := <-httpErr:
		return fmt.Errorf("http listener: %w", err)
	case err := <-tcpErr:
		return fmt.Errorf("tcp listener: %w", err)
	}

	// Drain ordering: stop intake (both transports refuse new work and
	// their in-flight requests complete), flush the shard queues so every
	// accepted batch is scored, then let obsRun.Close (deferred) flush the
	// alert journal, metrics snapshot, and trace. Zero accepted events are
	// lost: the invariant below is checked, not assumed.
	obsRun.Progress().SetPhase("draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := httpSrv.Shutdown(shutCtx); serr != nil {
		fmt.Fprintf(w, "http shutdown: %v\n", serr)
	}
	if tcpSrv != nil {
		tcpSrv.Shutdown()
	}
	stats := srv.Drain()
	close(tickStop)
	<-tickDone
	publishStats(obsRun.Progress(), stats)

	if stats.Accepted != stats.Scored {
		return fmt.Errorf("drain lost events: accepted %d != scored %d", stats.Accepted, stats.Scored)
	}
	fmt.Fprintf(w, "clean drain: %d accepted == %d scored (%d alarms, %d busy rejections)\n",
		stats.Accepted, stats.Scored, stats.Alarms, stats.Busy)
	obsRun.Announce("serve.drained", obs.Fields{
		"accepted": stats.Accepted,
		"scored":   stats.Scored,
		"alarms":   stats.Alarms,
		"busy":     stats.Busy,
	})
	return nil
}

func publishStats(p *obs.Progress, stats serve.Stats) {
	p.SetExtra(obs.Fields{
		"tenants":  stats.Tenants,
		"accepted": stats.Accepted,
		"scored":   stats.Scored,
		"alarms":   stats.Alarms,
		"busy":     stats.Busy,
	})
}

// tenantFactory trains each configured detector once and returns the
// factory of per-tenant scoring units over those shared, read-only models:
// a raw Scorer (threshold 0), a journaling Alarmer, or — with a veto family
// — the full corroboration pipeline. A bad flag fails here, at startup,
// not on the first tenant.
func tenantFactory(corpus *seq.Corpus, detName string, window int, threshold float64,
	vetoName string, vetoWindow int, vetoThreshold float64, journal *obs.AlertJournal) (func() (serve.TenantScorer, error), error) {
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("threshold %v outside [0,1]", threshold)
	}
	if vetoName != "" && threshold <= 0 {
		return nil, fmt.Errorf("-veto requires a positive -threshold")
	}
	if vetoWindow == 0 {
		vetoWindow = window
	}
	newTrained := func(name string, win int) (adiv.Detector, error) {
		det, err := adiv.NewDetector(name, win)
		if err != nil {
			return nil, err
		}
		if err := adiv.TrainWithCorpus(det, corpus); err != nil {
			return nil, err
		}
		return det, nil
	}
	det, err := newTrained(detName, window)
	if err != nil {
		return nil, err
	}
	var factory func() (serve.TenantScorer, error)
	switch {
	case vetoName != "":
		veto, err := newTrained(vetoName, vetoWindow)
		if err != nil {
			return nil, fmt.Errorf("veto: %w", err)
		}
		factory = func() (serve.TenantScorer, error) {
			p, err := online.NewVetoPipeline(det, veto, threshold, vetoThreshold)
			if err != nil {
				return nil, err
			}
			p.SetJournal(journal)
			return serve.PipelineTenant{P: p}, nil
		}
	case threshold > 0:
		factory = func() (serve.TenantScorer, error) {
			a, err := online.NewAlarmer(det, threshold)
			if err != nil {
				return nil, err
			}
			a.SetJournal(journal)
			return serve.AlarmerTenant{A: a}, nil
		}
	default:
		factory = func() (serve.TenantScorer, error) {
			s, err := online.NewScorer(det)
			if err != nil {
				return nil, err
			}
			return serve.ScorerTenant{S: s}, nil
		}
	}
	// One throwaway unit validates the thresholds now, not on the first
	// tenant; it costs an allocation, not a training.
	if _, err := factory(); err != nil {
		return nil, err
	}
	return factory, nil
}
