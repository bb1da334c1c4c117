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
// of closures. A tenant is pinned to one shard, so all of a tenant's work
// executes serially in submission order — which is what lets a recycled,
// concurrency-unsafe Scorer serve it without locks.
type router struct {
	// mu guards the submit/close race: submits hold it shared while
	// enqueueing, close holds it exclusively while flipping draining, so a
	// queue is never closed with a send in flight.
	mu       sync.RWMutex
	queues   []chan func()
	draining bool
	closed   bool
	wg       sync.WaitGroup
}

func newRouter(shards, depth int) *router {
	if shards < 1 {
		shards = 1
	}
	if depth < 1 {
		depth = 1
	}
	r := &router{queues: make([]chan func(), shards)}
	for i := range r.queues {
		q := make(chan func(), depth)
		r.queues[i] = q
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for task := range q {
				task()
			}
		}()
	}
	return r
}

func (r *router) shards() int { return len(r.queues) }

// submit enqueues task on shard without blocking: a full queue returns
// ErrBusy immediately rather than stalling the caller (and with it, every
// other tenant on the same connection).
func (r *router) submit(shard int, task func()) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.draining {
		return ErrDraining
	}
	select {
	case r.queues[shard] <- task:
		return nil
	default:
		return ErrBusy
	}
}

// depth reports a shard's current queue occupancy (telemetry only).
func (r *router) depth(shard int) int { return len(r.queues[shard]) }

// close stops intake, then drains: every task accepted before close runs to
// completion before close returns. Idempotent.
func (r *router) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.draining = true
	r.closed = true
	r.mu.Unlock()
	// No submit can be past the draining check now (the Lock above barriers
	// against in-flight RLock holders), so closing is safe.
	for _, q := range r.queues {
		close(q)
	}
	r.wg.Wait()
}
