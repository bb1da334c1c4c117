package serve

import (
	"errors"
	"sync"
)

// Submission errors. ErrBusy is the backpressure signal — the tenant's shard
// queue is full and the caller must retry or shed load; it surfaces as HTTP
// 429 or a Busy frame, never as silent buffering. ErrDraining means the
// server is shutting down and no longer accepts work.
var (
	ErrBusy     = errors.New("serve: shard queue full")
	ErrDraining = errors.New("serve: draining")
)

// router runs one worker goroutine per shard, each consuming a bounded queue
// of tasks. A tenant is pinned to one shard, so all of a tenant's work
// executes serially in submission order — which is what lets a recycled,
// concurrency-unsafe Scorer serve it without locks.
type router struct {
	// mu guards the submit/close race: submits hold it shared while
	// enqueueing, close holds it exclusively while flipping draining, so a
	// queue is never closed with a send in flight.
	mu       sync.RWMutex
	queues   []chan task
	draining bool
	wg       sync.WaitGroup
}

// newRouter starts work(i, q) on its own goroutine for each shard i; work
// returns once close has closed q and it has run every task left in q.
func newRouter(shards, depth int, work func(shard int, q <-chan task)) *router {
	r := &router{queues: make([]chan task, shards)}
	for i := range r.queues {
		q := make(chan task, depth)
		r.queues[i] = q
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			work(i, q)
		}()
	}
	return r
}

func (r *router) shards() int { return len(r.queues) }

// submit enqueues t on shard without blocking: a full queue returns
// ErrBusy immediately rather than stalling the caller (and with it, every
// other tenant on the same connection).
func (r *router) submit(shard int, t task) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.draining {
		return ErrDraining
	}
	select {
	case r.queues[shard] <- t:
		return nil
	default:
		return ErrBusy
	}
}

// close stops intake, then drains: every task accepted before close runs to
// completion, and every worker returns, before any call of close returns.
// Idempotent.
func (r *router) close() {
	r.mu.Lock()
	// No submit can be past the draining check now (the Lock barriers
	// against in-flight RLock holders), so closing is safe.
	if !r.draining {
		r.draining = true
		for _, q := range r.queues {
			close(q)
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
}
