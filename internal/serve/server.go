package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"adiv/internal/alphabet"
	"adiv/internal/checkpoint"
	"adiv/internal/obs"
)

// Config assembles a Server. NewTenant is the only required field: it builds
// one TenantScorer, per-stream state over trained models that every tenant
// shares read-only. A closed tenant's scorer is Reset and kept on its shard's
// free list for the shard's next new tenant.
type Config struct {
	// Shards is the worker count; tenants hash onto shards and all of a
	// tenant's batches execute serially on its shard. Default 1.
	Shards int
	// QueueDepth bounds each shard's pending-task queue. A full queue
	// rejects with ErrBusy — backpressure is explicit, memory never grows
	// with a slow consumer. Default 128.
	QueueDepth int
	// MaxBatch bounds the symbols accepted per submission. Default 8192.
	MaxBatch int
	// MaxFrameBytes bounds a TCP frame payload (DefaultMaxFrameBytes when
	// zero).
	MaxFrameBytes int
	// AlphabetSize rejects symbols >= it before acceptance, so the drain
	// invariant (accepted == scored) can never be broken by a mid-batch
	// domain error. Default alphabet.MaxSize.
	AlphabetSize int
	// NewTenant builds a per-tenant scorer over shared trained models
	// (required). It runs on the new tenant's shard worker when that shard's
	// free list is empty, so it may run concurrently on different shards and
	// must be safe for that; and since the shard's other tenants wait while
	// it runs, it should allocate state, not train. Its error becomes the
	// batch's Result.Err.
	NewTenant func() (TenantScorer, error)
	// Registry receives serve/* telemetry and the online/* watchdog pulse;
	// nil disables instrumentation.
	Registry *obs.Registry
}

// Result is the outcome of one accepted submission, delivered to the
// submitter's callback from the shard worker.
type Result struct {
	// Responses holds the window responses that became ready during the
	// batch, nil only for alarm-only pipelines. Submit has no quiet mode:
	// the tenant scores every batch into a fresh slice, and a quiet
	// request (HTTP "quiet", TCP EventsQuiet) is honoured by the transport,
	// which drops the responses instead of encoding them.
	Responses []float64
	// Alarms counts alarms (or escalations) the batch raised.
	Alarms int
	// Closed reports that the batch closed the tenant: a later Submit for
	// its id begins a fresh stream.
	Closed bool
	// Err is a scoring error, after which the batch may have partially
	// applied, or a NewTenant error, after which no tenant was opened.
	Err error
}

// Server routes tenant event batches to sharded workers. The zero value is
// unusable; construct with NewServer.
type Server struct {
	cfg    Config
	router *router

	draining atomic.Bool

	// acceptedN / scoredN back the drain invariant (accepted == scored
	// after Drain) independently of the optional registry.
	acceptedN atomic.Int64
	scoredN   atomic.Int64
	alarmsN   atomic.Int64
	busyN     atomic.Int64
	tenantsN  atomic.Int64 // open tenants, summed over the shards

	mAccepted *obs.Counter
	mScored   *obs.Counter
	mBusy     *obs.Counter
	mAlarms   *obs.Counter
	mSymbols  *obs.Counter // online/symbols — feeds the silent-stream watchdog
	mWdAlarms *obs.Counter // online/alarms — feeds the alarm-storm watchdog
	mTenants  *obs.Gauge
	mLatency  *obs.Sketch
	tracer    *obs.Tracer
}

// task is one accepted batch on its way to the tenant's shard worker.
type task struct {
	id         string
	syms       []alphabet.Symbol
	closeAfter bool
	start      time.Time
	done       func(Result)
}

// NewServer validates cfg and starts the shard workers.
func NewServer(cfg Config) (*Server, error) {
	if cfg.NewTenant == nil {
		return nil, errors.New("serve: Config.NewTenant is required")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 128
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 8192
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if cfg.AlphabetSize < 1 || cfg.AlphabetSize > alphabet.MaxSize {
		cfg.AlphabetSize = alphabet.MaxSize
	}
	s := &Server{cfg: cfg}
	if reg := cfg.Registry; reg != nil {
		s.mAccepted = reg.Counter("serve/accepted")
		s.mScored = reg.Counter("serve/scored")
		s.mBusy = reg.Counter("serve/busy")
		s.mAlarms = reg.Counter("serve/alarms")
		s.mSymbols = reg.Counter("online/symbols")
		s.mWdAlarms = reg.Counter("online/alarms")
		s.mTenants = reg.Gauge("serve/tenants")
		s.mLatency = reg.Sketch("serve/ingest_latency")
		s.tracer = reg.Tracer()
	}
	s.router = newRouter(cfg.Shards, cfg.QueueDepth, s.work)
	return s, nil
}

// Shards returns the worker shard count.
func (s *Server) Shards() int { return s.router.shards() }

// MaxFrameBytes returns the configured TCP frame payload bound.
func (s *Server) MaxFrameBytes() int { return s.cfg.MaxFrameBytes }

// TenantShard returns the shard a tenant id routes to — deterministic
// FNV-1a partitioning, the same recipe the checkpoint journal uses for grid
// sharding, so a tenant's placement is stable across restarts.
func (s *Server) TenantShard(id string) int {
	return checkpoint.ShardOf(id, 0, 0, s.router.shards())
}

// Submit routes one batch for tenant id. On acceptance (nil return) the
// batch WILL be scored — even through a drain — and done is invoked exactly
// once from the tenant's shard worker with the outcome, a NewTenant error
// included. A non-nil return means nothing was accepted and done will not be
// called: ErrBusy (shard queue full — retry), ErrDraining, or a validation
// error.
//
// closeAfter retires the tenant after the batch: its scorer is Reset and
// recycled, and a later Submit for the same id begins a fresh stream.
func (s *Server) Submit(id string, syms []alphabet.Symbol, closeAfter bool, done func(Result)) error {
	if s.draining.Load() {
		return ErrDraining
	}
	if id == "" {
		return errors.New("serve: empty tenant id")
	}
	if len(id) > 255 {
		return errors.New("serve: tenant id longer than 255 bytes")
	}
	if len(syms) > s.cfg.MaxBatch {
		return fmt.Errorf("serve: batch of %d exceeds max %d", len(syms), s.cfg.MaxBatch)
	}
	for i, sym := range syms {
		if int(sym) >= s.cfg.AlphabetSize {
			return fmt.Errorf("serve: symbol %d at offset %d outside alphabet of %d", sym, i, s.cfg.AlphabetSize)
		}
	}
	t := task{id: id, syms: syms, closeAfter: closeAfter, start: time.Now(), done: done}
	if err := s.router.submit(s.TenantShard(id), t); err != nil {
		if errors.Is(err, ErrBusy) {
			s.busyN.Add(1)
			s.mBusy.Inc()
		}
		return err
	}
	s.acceptedN.Add(int64(len(syms)))
	s.mAccepted.Add(int64(len(syms)))
	return nil
}

// work is the worker of one shard. It alone reads and writes the shard's tenant table
// and free list, so neither needs a lock, and a rejected enqueue leaves
// nothing to undo. A closed tenant's scorer is Reset before it joins the free
// list, so no scorer there carries a previous tenant's stream state. Once
// Drain closes q, work ends the stream of every tenant still open through
// Reset, as a close would.
func (s *Server) work(shard int, q <-chan task) {
	tenants := make(map[string]TenantScorer)
	var free []TenantScorer // reused LIFO
	for t := range q {
		var span *obs.TraceSpan
		if s.tracer != nil {
			span = s.tracer.Start("serve/batch", "serve")
			span.SetLane(shard)
			span.SetAttr("tenant", t.id)
			span.SetAttrInt("events", len(t.syms))
		}
		var res Result
		sc, open := tenants[t.id]
		if !open {
			if n := len(free); n > 0 {
				sc, free = free[n-1], free[:n-1]
			} else if sc, res.Err = s.cfg.NewTenant(); res.Err != nil {
				res.Err = fmt.Errorf("serve: tenant %q: %w", t.id, res.Err)
			}
			if open = res.Err == nil; open {
				sc.SetTenant(t.id)
				tenants[t.id] = sc
				s.addTenants(1)
			}
		}
		if open {
			res.Responses, res.Alarms, res.Err = sc.PushBatch(t.syms)
			if t.closeAfter {
				delete(tenants, t.id)
				sc.Reset()
				free = append(free, sc)
				s.addTenants(-1)
			}
		}
		res.Closed = t.closeAfter
		n := int64(len(t.syms))
		s.scoredN.Add(n)
		s.alarmsN.Add(int64(res.Alarms))
		s.mScored.Add(n)
		s.mSymbols.Add(n)
		if res.Alarms > 0 {
			s.mAlarms.Add(int64(res.Alarms))
			s.mWdAlarms.Add(int64(res.Alarms))
		}
		// One sketch observation per batch, not per event: the sketch is
		// mutex-guarded and a per-event observe would serialize the shards.
		s.mLatency.Observe(time.Since(t.start).Seconds())
		span.End()
		t.done(res)
	}
	for _, sc := range tenants {
		sc.Reset()
	}
}

// addTenants moves the open-tenant count by d and publishes it. Workers on
// different shards race to set the gauge, so each sets it again until the
// count it set is still current: the last Set leaves the gauge at the count.
func (s *Server) addTenants(d int64) {
	for n := s.tenantsN.Add(d); ; {
		s.mTenants.Set(float64(n))
		m := s.tenantsN.Load()
		if m == n {
			return
		}
		n = m
	}
}

// Stats is a consistent snapshot of the server's lifetime counters.
type Stats struct {
	Accepted int64 `json:"accepted"`
	Scored   int64 `json:"scored"`
	Alarms   int64 `json:"alarms"`
	Busy     int64 `json:"busy"`
	Tenants  int   `json:"tenants"`
}

// Stats reports accepted/scored/alarm/busy totals and the live tenant count.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted: s.acceptedN.Load(),
		Scored:   s.scoredN.Load(),
		Alarms:   s.alarmsN.Load(),
		Busy:     s.busyN.Load(),
		Tenants:  int(s.tenantsN.Load()),
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops intake and flushes every accepted batch: after it returns,
// accepted == scored and all shard workers have exited. Each worker's last
// act ends its still-open tenants' streams through Reset, as a close would,
// so a veto pipeline resolves its unanswered candidates as suppressed rather
// than leaving them pending in the journal; those tenants still count in
// Stats.Tenants. Transports must stop feeding Submit first (they get
// ErrDraining regardless). Idempotent — concurrent callers all block until
// the flush completes.
func (s *Server) Drain() Stats {
	s.draining.Store(true)
	s.router.close()
	return s.Stats()
}
