package seq

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adiv/internal/obs"
)

// Corpus is a concurrency-safe cache of sequence databases over one
// immutable training stream. The evaluation grid trains every detector at
// every window width on the same stream — stide, t-stide and Lane &
// Brodley all want the width-w database and the next-element predictors
// want width w+1 — so a shared Corpus turns dozens of near-identical
// seq.Build passes over the (million-element) stream into one build per
// distinct width.
//
// DB is singleflight per width: concurrent callers asking for the same
// width block on a single build instead of duplicating it, and callers
// asking for different widths build in parallel. Every *DB handed out is
// shared; callers must treat it as read-only (DB is immutable after Build,
// so honest users need no further synchronization).
type Corpus struct {
	stream Stream

	mu      sync.Mutex
	entries map[int]*corpusEntry

	alphaOnce sync.Once
	alphaSize int

	hits   atomic.Int64
	misses atomic.Int64

	// Telemetry handles; nil when uninstrumented (the default).
	mHits   *obs.Counter
	mMisses *obs.Counter
	tBuild  *obs.Sketch
	gWidths *obs.Gauge
	tracer  *obs.Tracer
}

// corpusEntry is one width's build slot. The goroutine that creates the
// entry performs the build and closes done; everyone else waits on done.
type corpusEntry struct {
	done chan struct{}
	db   *DB
	err  error
}

// NewCorpus returns a Corpus over stream. The stream is copied so later
// caller mutations cannot corrupt cached databases.
func NewCorpus(stream Stream) *Corpus {
	return &Corpus{
		stream:  stream.Clone(),
		entries: make(map[int]*corpusEntry),
	}
}

// Instrument records cache telemetry into reg: the seq/corpus/hit and
// seq/corpus/miss counters, the seq/corpus/build sketch (one observation
// in seconds per database built), and the seq/corpus/widths gauge (distinct widths
// cached). A nil registry disables instrumentation. Instrument is safe to
// call concurrently with DB.
func (c *Corpus) Instrument(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == nil {
		c.mHits, c.mMisses, c.tBuild, c.gWidths, c.tracer = nil, nil, nil, nil, nil
		return
	}
	c.mHits = reg.Counter("seq/corpus/hit")
	c.mMisses = reg.Counter("seq/corpus/miss")
	c.tBuild = reg.Sketch("seq/corpus/build")
	c.gWidths = reg.Gauge("seq/corpus/widths")
	c.tracer = reg.Tracer()
}

// Stream returns the corpus's training stream. The returned slice is the
// corpus's own copy: callers must not modify it. It exists so corpus-aware
// code can fall back to plain Detector.Train for detectors that model the
// stream directly (e.g. the HMM) rather than through sequence databases.
func (c *Corpus) Stream() Stream { return c.stream }

// Len returns the length of the training stream.
func (c *Corpus) Len() int { return len(c.stream) }

// AlphabetSize returns the number of symbols in the training stream's
// alphabet (largest symbol observed plus one; 0 for an empty stream),
// computed once and cached — the predictors' smoothing and one-hot layers
// otherwise rescan the whole stream per training.
func (c *Corpus) AlphabetSize() int {
	c.alphaOnce.Do(func() {
		k := 0
		for _, s := range c.stream {
			if int(s)+1 > k {
				k = int(s) + 1
			}
		}
		c.alphaSize = k
	})
	return c.alphaSize
}

// DB returns the sequence database at the given width, building it at most
// once per width. It returns an error for a non-positive width.
func (c *Corpus) DB(width int) (*DB, error) {
	if width <= 0 {
		return nil, fmt.Errorf("seq: non-positive window width %d", width)
	}
	c.mu.Lock()
	if e, ok := c.entries[width]; ok {
		hits := c.mHits
		c.mu.Unlock()
		<-e.done
		c.hits.Add(1)
		hits.Inc()
		return e.db, e.err
	}
	e := &corpusEntry{done: make(chan struct{})}
	c.entries[width] = e
	misses, tBuild, gWidths, tracer := c.mMisses, c.tBuild, c.gWidths, c.tracer
	widths := len(c.entries)
	c.mu.Unlock()

	c.misses.Add(1)
	misses.Inc()
	// The singleflight build has no worker identity (whichever training
	// task lost the race performs it), so the trace span stays laneless.
	tsp := tracer.Start("seq/db", "db")
	tsp.SetAttrInt("width", width)
	start := time.Now()
	e.db, e.err = Build(c.stream, width)
	tBuild.Observe(time.Since(start).Seconds())
	tsp.End()
	gWidths.Set(float64(widths))
	close(e.done)
	return e.db, e.err
}

// Contains reports whether w occurs in the stream (at w's own length). An
// empty sequence trivially occurs.
func (c *Corpus) Contains(w Stream) (bool, error) {
	if len(w) == 0 {
		return true, nil
	}
	db, err := c.DB(len(w))
	if err != nil {
		return false, err
	}
	return db.Contains(w), nil
}

// Stats returns the cache's lifetime hit and miss counts. Each miss
// corresponds to exactly one seq.Build over the stream, so a grid run's
// training work is provable from the miss count alone.
func (c *Corpus) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Widths returns the distinct widths cached so far, ascending. Widths
// whose builds are still in flight are included.
func (c *Corpus) Widths() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.entries))
	for w := range c.entries {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}
