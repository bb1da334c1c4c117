package main

import (
	"fmt"
	"time"
)

// Sizing shared by every serve workload. The benchmark machine has two
// cores, so the load generator never uses more than two connections or two
// driving goroutines; the server runs nproc shards at N and one shard under
// GOMAXPROCS 1.
const (
	maxConns     = 2
	queueDepth   = 128 // per-shard queue; closed-loop depth stays far below it
	injectSize   = 6   // canonical MFS injected per stream, = detector window
	threshold    = 1.0 // alarm on maximal responses only (the paper's strict regime)
	setupRepeats = 4   // serve set-ups timed per round; setup_s is the median of all

	// lateLimit is how late the open-loop generator may send an operation
	// for it to be timed. An operation sent later than that missed its
	// schedule because the generator stalled — on this shared host, mostly
	// because the whole machine did — and timing it from when it was due
	// would measure the stall, not the system. Such operations are counted
	// (loadgen.late_p99_ms, the run's notes) and left out of the latency
	// sample; when more than maxLateShare of them are, the generator fell
	// behind its schedule and the run is invalid.
	lateLimit    = time.Millisecond
	maxLateShare = 0.25
)

// workload is one named benchmark input. Serve workloads drive a real
// server over loopback; the grid workload runs the paper's four maps.
type workload struct {
	name string
	grid bool

	transport string // "tcp" or "http"
	detector  string
	window    int
	quiet     bool // tcp: EventsQuiet frames (counts only, no responses back)

	batch     int // events per batch (one frame, or one NDJSON line)
	streams   int // distinct input streams (tcp: one per long-lived tenant)
	streamLen int // events per stream (http: one session, one request)
	depth     int // closed loop: batches (tcp) or requests (http) in flight per connection

	// rate is the open-loop offered load in requests per second across
	// both connections: frames for tcp, session requests for http. It is
	// fixed here, well below the saturation of the code this benchmark was
	// written against, and never derived from a run.
	rate float64
}

var workloads = []workload{
	{
		name: "tcp-stide", transport: "tcp", detector: "stide", window: 6, quiet: true,
		batch: 256, streams: 16, streamLen: 64 * 256, depth: 32, rate: 4000,
	},
	{
		name: "tcp-lb", transport: "tcp", detector: "lb", window: 6, quiet: true,
		batch: 256, streams: 16, streamLen: 64 * 256, depth: 32, rate: 2000,
	},
	{
		name: "http-churn", transport: "http", detector: "stide", window: 6,
		batch: 64, streams: 64, streamLen: 4 * 64, depth: 1, rate: 1000,
	},
	{name: "grid-quick", grid: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// batchesPerStream is how many batches one pass over a stream takes.
func (w workload) batchesPerStream() int { return (w.streamLen + w.batch - 1) / w.batch }
