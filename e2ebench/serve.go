package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"adiv"
	"adiv/internal/alphabet"
	"adiv/internal/gen"
	"adiv/internal/online"
	"adiv/internal/serve"
)

// stack is one running serve deployment on a loopback listener: the
// sharded server plus the workload's transport.
type stack struct {
	srv    *serve.Server
	tcp    *serve.TCPServer
	hs     *http.Server
	addr   string
	served chan error // the transport's Serve result
	corpus *adiv.SequenceCorpus
}

// startStack performs everything a deployment does before its first batch
// can be sent: training-corpus synthesis, eager tenant-factory validation,
// server and listener start. This is what setup_s times. Load phases pass
// the corpus of an earlier set-up instead of synthesizing it again. A
// non-nil probe wraps the tenant factory and every tenant scorer it
// returns.
func startStack(w workload, seed uint64, shards int, corpus *adiv.SequenceCorpus, p *probe) (*stack, error) {
	if corpus == nil {
		g, err := gen.New(trainingConfig(seed))
		if err != nil {
			return nil, err
		}
		corpus = adiv.NewSequenceCorpus(g.Training())
	}
	newTenant, err := tenantFactory(corpus, w.detector, w.window)
	if err != nil {
		return nil, err
	}
	if p != nil {
		newTenant = p.wrapFactory(newTenant)
	}
	srv, err := serve.NewServer(serve.Config{
		Shards:       shards,
		QueueDepth:   queueDepth,
		MaxBatch:     w.batch,
		AlphabetSize: adiv.AlphabetSize,
		NewTenant:    newTenant,
	})
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.attach(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	s := &stack{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1), corpus: corpus}
	if w.transport == "tcp" {
		s.tcp = serve.NewTCPServer(srv, ln)
		go func() { s.served <- s.tcp.Serve() }()
	} else {
		s.hs = &http.Server{Handler: serve.NewHTTPHandler(srv)}
		go func() {
			err := s.hs.Serve(ln)
			if errors.Is(err, http.ErrServerClosed) {
				err = nil
			}
			s.served <- err
		}()
	}
	return s, nil
}

// stop shuts the transport down, drains the server and checks the drain
// invariant: every accepted event was scored.
func (s *stack) stop(tl *tally) serve.Stats {
	if s.tcp != nil {
		s.tcp.Shutdown()
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.hs.Shutdown(ctx); err != nil {
			tl.fail("http shutdown: %v", err)
		}
		cancel()
	}
	if err := <-s.served; err != nil {
		tl.fail("transport: %v", err)
	}
	stats := s.srv.Drain()
	tl.check(stats.Accepted == stats.Scored, "drain: accepted %d != scored %d", stats.Accepted, stats.Scored)
	return stats
}

// tenantFactory builds each tenant's scorer from public adiv and online
// calls, the way cmd/serve's factory does for a thresholded detector: a
// detector trained against the shared corpus, wrapped in an Alarmer. The
// factory is validated eagerly, so a bad configuration fails at set-up.
func tenantFactory(corpus *adiv.SequenceCorpus, name string, window int) (func() (serve.TenantScorer, error), error) {
	newTrained := func() (adiv.Detector, error) {
		det, err := adiv.NewDetector(name, window)
		if err != nil {
			return nil, err
		}
		if err := adiv.TrainWithCorpus(det, corpus); err != nil {
			return nil, err
		}
		return det, nil
	}
	if _, err := newTrained(); err != nil {
		return nil, err
	}
	return func() (serve.TenantScorer, error) {
		det, err := newTrained()
		if err != nil {
			return nil, err
		}
		a, err := online.NewAlarmer(det, threshold)
		if err != nil {
			return nil, err
		}
		return serve.AlarmerTenant{A: a}, nil
	}, nil
}

// probe is the traced run's view into the server, taken only around calls
// into the server's public seams: Config.NewTenant and the PushBatch of the
// scorers it returns.
type probe struct {
	srv *serve.Server

	mu     sync.Mutex
	newMs  []float64 // duration of each NewTenant call
	shards []shardLog
}

// shardLog is written only by its shard's worker goroutine and read after
// Drain, which orders the two.
type shardLog struct {
	busy   time.Duration
	events int64
	recs   []serverRec
}

// serverRec is one PushBatch as seen from the shard worker.
type serverRec struct {
	tenant     string
	start, end time.Time
	n          int
}

func newProbe() *probe { return &probe{} }

func (p *probe) attach(srv *serve.Server) {
	p.srv = srv
	p.shards = make([]shardLog, srv.Shards())
}

func (p *probe) wrapFactory(f func() (serve.TenantScorer, error)) func() (serve.TenantScorer, error) {
	return func() (serve.TenantScorer, error) {
		start := time.Now()
		sc, err := f()
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		p.mu.Lock()
		p.newMs = append(p.newMs, ms)
		p.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return &tracedTenant{inner: sc, p: p}, nil
	}
}

// tracedTenant times PushBatch. SetTenant runs in Submit's lookup, before
// the batch is queued, so the worker sees the tenant and shard it set.
type tracedTenant struct {
	inner  serve.TenantScorer
	p      *probe
	tenant string
	shard  int
}

func (t *tracedTenant) PushBatch(syms []alphabet.Symbol) ([]float64, int, error) {
	start := time.Now()
	responses, alarms, err := t.inner.PushBatch(syms)
	end := time.Now()
	log := &t.p.shards[t.shard]
	log.busy += end.Sub(start)
	log.events += int64(len(syms))
	log.recs = append(log.recs, serverRec{tenant: t.tenant, start: start, end: end, n: len(syms)})
	return responses, alarms, err
}

func (t *tracedTenant) SetTenant(id string) {
	t.tenant = id
	t.shard = t.p.srv.TenantShard(id)
	t.inner.SetTenant(id)
}

func (t *tracedTenant) Reset() { t.inner.Reset() }

// byTenant groups the logged batches per tenant in scoring order, which is
// submission order: a tenant is pinned to one shard and its queue is FIFO.
func (p *probe) byTenant() map[string][]serverRec {
	out := make(map[string][]serverRec)
	for _, l := range p.shards {
		for _, r := range l.recs {
			out[r.tenant] = append(out[r.tenant], r)
		}
	}
	return out
}

// scoreTotals sums PushBatch time and events over every shard.
func (p *probe) scoreTotals() (busy time.Duration, events int64) {
	for _, l := range p.shards {
		busy += l.busy
		events += l.events
	}
	return busy, events
}

// occupancy is each shard's PushBatch time over the phase's wall time,
// averaged over shards.
func (p *probe) occupancy(wall time.Duration) float64 {
	if len(p.shards) == 0 || wall <= 0 {
		return 0
	}
	sum := 0.0
	for _, l := range p.shards {
		sum += l.busy.Seconds() / wall.Seconds()
	}
	return sum / float64(len(p.shards))
}
