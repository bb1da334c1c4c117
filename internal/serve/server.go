package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adiv/internal/alphabet"
	"adiv/internal/checkpoint"
	"adiv/internal/obs"
)

// Config assembles a Server. NewTenant is the only required field: it builds
// one TenantScorer, per-stream state over trained models that every tenant
// shares read-only. A closed tenant's scorer is Reset and kept on a free
// list for the next new tenant.
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
	// (required). It runs under the server's tenant-table lock, so it
	// should allocate state, not train.
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
	// Closed reports that the tenant's scorer was retired to the free list.
	Closed bool
	// Err is a scoring error; the batch may have partially applied.
	Err error
}

// Server routes tenant event batches to sharded workers. The zero value is
// unusable; construct with NewServer.
type Server struct {
	cfg    Config
	router *router

	mu      sync.Mutex
	tenants map[string]*tenantState
	free    []TenantScorer // Reset scorers of closed tenants, reused LIFO

	draining atomic.Bool
	ended    sync.Once // Drain ends the open tenants' streams once

	// acceptedN / scoredN back the drain invariant (accepted == scored
	// after Drain) independently of the optional registry.
	acceptedN atomic.Int64
	scoredN   atomic.Int64
	alarmsN   atomic.Int64
	busyN     atomic.Int64

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

type tenantState struct {
	id    string
	shard int
	sc    TenantScorer
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
	s := &Server{
		cfg:     cfg,
		router:  newRouter(cfg.Shards, cfg.QueueDepth),
		tenants: make(map[string]*tenantState),
	}
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
// once from the tenant's shard worker with the outcome. A non-nil return
// means nothing was accepted and done will not be called: ErrBusy (shard
// queue full — retry), ErrDraining, or a validation or NewTenant error.
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

	st, fresh, err := s.lookup(id, closeAfter)
	if err != nil {
		return err
	}

	start := time.Now()
	n := len(syms)
	task := func() {
		var span *obs.TraceSpan
		if s.tracer != nil {
			span = s.tracer.Start("serve/batch", "serve")
			span.SetLane(st.shard)
			span.SetAttr("tenant", st.id)
			span.SetAttrInt("events", n)
		}
		responses, alarms, serr := st.sc.PushBatch(syms)
		s.scoredN.Add(int64(n))
		s.alarmsN.Add(int64(alarms))
		if closeAfter {
			s.recycle(st.sc)
		}
		s.mScored.Add(int64(n))
		s.mSymbols.Add(int64(n))
		if alarms > 0 {
			s.mAlarms.Add(int64(alarms))
			s.mWdAlarms.Add(int64(alarms))
		}
		// One sketch observation per batch, not per event: the sketch is
		// mutex-guarded and a per-event observe would serialize the shards.
		s.mLatency.Observe(time.Since(start).Seconds())
		span.End()
		done(Result{Responses: responses, Alarms: alarms, Closed: closeAfter, Err: serr})
	}
	if err := s.router.submit(st.shard, task); err != nil {
		s.submitFailed(st, fresh, closeAfter)
		if errors.Is(err, ErrBusy) {
			s.busyN.Add(1)
			s.mBusy.Inc()
		}
		return err
	}
	s.acceptedN.Add(int64(n))
	s.mAccepted.Add(int64(n))
	return nil
}

// lookup finds or creates the tenant's state. When closeAfter is set the
// state is removed from the map here, at submission time: any later Submit
// for the same id creates a fresh stream, and because both route to the same
// shard queue, the close batch always scores before the fresh one.
func (s *Server) lookup(id string, closeAfter bool) (st *tenantState, fresh bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st = s.tenants[id]
	if st == nil {
		var sc TenantScorer
		if n := len(s.free); n > 0 {
			sc = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
		} else if sc, err = s.cfg.NewTenant(); err != nil {
			return nil, false, fmt.Errorf("serve: tenant %q: %w", id, err)
		}
		sc.SetTenant(id)
		st = &tenantState{id: id, shard: s.TenantShard(id), sc: sc}
		fresh = true
		if !closeAfter {
			s.tenants[id] = st
		}
		s.mTenants.Set(float64(len(s.tenants)))
		return st, fresh, nil
	}
	if closeAfter {
		delete(s.tenants, id)
		s.mTenants.Set(float64(len(s.tenants)))
	}
	return st, false, nil
}

// recycle resets a closed tenant's scorer and returns it to the free list.
// Resetting here rather than on reuse means a scorer never sits on the list
// carrying a previous tenant's stream state.
func (s *Server) recycle(sc TenantScorer) {
	sc.Reset()
	s.mu.Lock()
	s.free = append(s.free, sc)
	s.mu.Unlock()
}

// submitFailed undoes lookup's map mutation after a rejected enqueue, so a
// busy shard does not leak the tenant's scorer or strand its stream state.
func (s *Server) submitFailed(st *tenantState, fresh, closeAfter bool) {
	s.mu.Lock()
	if fresh {
		delete(s.tenants, st.id) // no-op when closeAfter kept it out
	} else if closeAfter {
		if _, exists := s.tenants[st.id]; !exists {
			s.tenants[st.id] = st
		}
	}
	s.mTenants.Set(float64(len(s.tenants)))
	s.mu.Unlock()
	if fresh {
		// Nothing was scored; recycle immediately.
		s.recycle(st.sc)
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
	s.mu.Lock()
	tenants := len(s.tenants)
	s.mu.Unlock()
	return Stats{
		Accepted: s.acceptedN.Load(),
		Scored:   s.scoredN.Load(),
		Alarms:   s.alarmsN.Load(),
		Busy:     s.busyN.Load(),
		Tenants:  tenants,
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops intake and flushes every accepted batch: after it returns,
// accepted == scored and all shard workers have exited. It then ends every
// still-open tenant's stream through Reset, as a close would, so a veto
// pipeline resolves its unanswered candidates as suppressed rather than
// leaving them pending in the journal. Transports must stop feeding Submit
// first (they get ErrDraining regardless). Idempotent — concurrent callers
// all block until the flush completes.
func (s *Server) Drain() Stats {
	s.draining.Store(true)
	s.router.close()
	s.ended.Do(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, st := range s.tenants {
			st.sc.Reset()
		}
	})
	return s.Stats()
}
