package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/detector/hmm"
	"adiv/internal/detector/markovdet"
	"adiv/internal/detector/nnet"
	"adiv/internal/detector/stide"
	"adiv/internal/gen"
	"adiv/internal/inject"
	"adiv/internal/obs"
	"adiv/internal/online"
	"adiv/internal/seq"
)

// testWindow keeps the test detectors cheap while still exercising the
// window machinery.
const testWindow = 4

// testGen builds a small deterministic generator shared by the serving
// tests.
func testGen(t testing.TB) *gen.Generator {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.TrainLen = 20_000
	cfg.BackgroundLen = 2_000
	g, err := gen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// trainedOn trains one detector on g's training stream.
func trainedOn(t testing.TB, g *gen.Generator, det detector.Detector, err error) detector.Detector {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if err := detector.TrainWith(det, seq.NewCorpus(g.Training())); err != nil {
		t.Fatal(err)
	}
	return det
}

func testStide(t testing.TB, g *gen.Generator) detector.Detector {
	t.Helper()
	det, err := stide.New(testWindow)
	return trainedOn(t, g, det, err)
}

// testNN is a small network with extent testWindow, like testStide's.
func testNN(t testing.TB, g *gen.Generator) detector.Detector {
	t.Helper()
	cfg := nnet.DefaultConfig()
	cfg.Hidden, cfg.Epochs = 12, 40
	det, err := nnet.New(testWindow-1, cfg)
	return trainedOn(t, g, det, err)
}

func testHMM(t testing.TB, g *gen.Generator) detector.Detector {
	t.Helper()
	cfg := hmm.DefaultConfig()
	cfg.Iterations, cfg.MaxTrainSymbols = 8, 5_000
	det, err := hmm.New(cfg)
	return trainedOn(t, g, det, err)
}

// tenantFactory returns a NewTenant hook over one trained stide detector
// that every tenant shares — the sharing the real daemon uses.
func tenantFactory(t testing.TB, g *gen.Generator, threshold float64) func() (TenantScorer, error) {
	t.Helper()
	return tenantsOver(testStide(t, g), threshold)
}

// tenantsOver returns a NewTenant hook of per-stream state over det.
func tenantsOver(det detector.Detector, threshold float64) func() (TenantScorer, error) {
	return func() (TenantScorer, error) {
		if threshold > 0 {
			a, err := online.NewAlarmer(det, threshold)
			if err != nil {
				return nil, err
			}
			return AlarmerTenant{A: a}, nil
		}
		s, err := online.NewScorer(det)
		if err != nil {
			return nil, err
		}
		return ScorerTenant{S: s}, nil
	}
}

func newTestServer(t testing.TB, shards, queueDepth int, threshold float64) *Server {
	t.Helper()
	s, err := NewServer(Config{
		Shards:     shards,
		QueueDepth: queueDepth,
		NewTenant:  tenantFactory(t, testGen(t), threshold),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// submitWait submits one batch and blocks for its result, retrying ErrBusy —
// the client contract under backpressure.
func submitWait(t testing.TB, s *Server, tenant string, syms []alphabet.Symbol, closeAfter bool) Result {
	t.Helper()
	ch := make(chan Result, 1)
	for {
		err := s.Submit(tenant, syms, closeAfter, func(res Result) { ch <- res })
		if err == nil {
			break
		}
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("Submit(%s): %v", tenant, err)
		}
		runtime.Gosched()
	}
	return <-ch
}

// batchResponses is the ground truth: the batch Score of the stream by a
// freshly trained stide.
func batchResponses(t testing.TB, g *gen.Generator, stream seq.Stream) []float64 {
	t.Helper()
	responses, err := testStide(t, g).Score(stream)
	if err != nil {
		t.Fatal(err)
	}
	return responses
}

// raggedBatch is the batch size serveBatches cuts streams into: it never
// aligns with window boundaries.
const raggedBatch = 97

// serveBatches pushes one stream per tenant through s concurrently, in
// raggedBatch-sized batches, closing each tenant on its last batch, then
// drains s. It returns each tenant's batch results in order.
func serveBatches(t *testing.T, s *Server, streams []seq.Stream) [][]Result {
	t.Helper()
	var wg sync.WaitGroup
	got := make([][]Result, len(streams))
	events := 0
	for i, stream := range streams {
		events += len(stream)
		wg.Add(1)
		go func(i int, stream seq.Stream) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", i)
			for off := 0; off < len(stream); off += raggedBatch {
				end := min(off+raggedBatch, len(stream))
				res := submitWait(t, s, tenant, stream[off:end], end == len(stream))
				if res.Err != nil {
					t.Errorf("tenant %d: %v", i, res.Err)
					return
				}
				got[i] = append(got[i], res)
			}
		}(i, stream)
	}
	wg.Wait()
	stats := s.Drain()
	if stats.Accepted != stats.Scored {
		t.Fatalf("drain: accepted %d != scored %d", stats.Accepted, stats.Scored)
	}
	if stats.Accepted != int64(events) {
		t.Fatalf("accepted %d, want %d", stats.Accepted, events)
	}
	return got
}

// serveStreams is serveBatches returning each tenant's responses in order.
func serveStreams(t *testing.T, s *Server, streams []seq.Stream) [][]float64 {
	t.Helper()
	batches := serveBatches(t, s, streams)
	got := make([][]float64, len(batches))
	for i, results := range batches {
		for _, res := range results {
			got[i] = append(got[i], res.Responses...)
		}
	}
	return got
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d responses, want %d", label, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s response %d: served %v != batch %v", label, j, got[j], want[j])
		}
	}
}

// TestServingEquivalence is the core property: concurrent tenants batched
// through the sharded server, each a stream over one shared trained model,
// receive responses bit-identical to the model's batch Score of their
// stream, for every shard count and family.
func TestServingEquivalence(t *testing.T) {
	g := testGen(t)
	const tenants = 6
	streams := make([]seq.Stream, tenants)
	for i := range streams {
		streams[i] = g.Noisy(1_500, uint64(i))
	}
	models := []detector.Detector{testStide(t, g), testNN(t, g), testHMM(t, g)}
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, det := range models {
				t.Run(det.Name(), func(t *testing.T) {
					s, err := NewServer(Config{Shards: shards, QueueDepth: 8, NewTenant: tenantsOver(det, 0)})
					if err != nil {
						t.Fatal(err)
					}
					got := serveStreams(t, s, streams)
					for i, stream := range streams {
						want, err := det.Score(stream)
						if err != nil {
							t.Fatal(err)
						}
						sameBits(t, fmt.Sprintf("tenant %d", i), got[i], want)
					}
				})
			}
		})
	}
}

// testMarkov is the rare-sensitive primary of the Section-7 pipeline.
func testMarkov(t testing.TB, g *gen.Generator) detector.Detector {
	t.Helper()
	det, err := markovdet.New(testWindow)
	return trainedOn(t, g, det, err)
}

// pipelineThreshold is the Markov primary's alarm threshold in the
// pipeline tests: rare windows alarm, so the stide veto has work to do.
const pipelineThreshold = 0.98

// pipelinesOver returns a NewTenant hook of veto pipelines over one shared
// primary and one shared veto model, journaling into j.
func pipelinesOver(primary, veto detector.Detector, j *obs.AlertJournal) func() (TenantScorer, error) {
	return func() (TenantScorer, error) {
		p, err := online.NewVetoPipeline(primary, veto, pipelineThreshold, 1)
		if err != nil {
			return nil, err
		}
		p.SetJournal(j)
		return PipelineTenant{P: p}, nil
	}
}

// TestServingEquivalencePipeline is TestServingEquivalence for the served
// Section-7 rule: each batch a PipelineTenant serves escalates exactly as
// many alarms as a serial VetoPipeline fed the same batches, for every
// shard count.
func TestServingEquivalencePipeline(t *testing.T) {
	g := testGen(t)
	primary, veto := testMarkov(t, g), testStide(t, g)
	// The noisy streams carry rare windows the primary alone alarms on; a
	// canonical minimal foreign sequence planted at a per-tenant position
	// gives the veto something to corroborate.
	mfs, err := gen.CanonicalMFS(6)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]seq.Stream, 6)
	for i := range streams {
		p, err := inject.At(g.Noisy(1_500, uint64(i)), mfs, 300+150*i)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = p.Stream
	}
	want := make([][]int, len(streams))
	total := 0
	for i, stream := range streams {
		p, err := online.NewVetoPipeline(primary, veto, pipelineThreshold, 1)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(stream); off += raggedBatch {
			esc, err := p.PushAll(stream[off:min(off+raggedBatch, len(stream))])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], len(esc))
			total += len(esc)
		}
	}
	if total == 0 {
		t.Fatal("no stream escalated an alarm; the equivalence would be vacuous")
	}
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := NewServer(Config{Shards: shards, QueueDepth: 8, NewTenant: pipelinesOver(primary, veto, nil)})
			if err != nil {
				t.Fatal(err)
			}
			for i, results := range serveBatches(t, s, streams) {
				if len(results) != len(want[i]) {
					t.Fatalf("tenant %d: %d batches, want %d", i, len(results), len(want[i]))
				}
				for b, res := range results {
					if res.Responses != nil || res.Alarms != want[i][b] {
						t.Fatalf("tenant %d batch %d: %d escalations (responses %v), serial pipeline %d",
							i, b, res.Alarms, res.Responses, want[i][b])
					}
				}
			}
		})
	}
}

// pendingPrefix cuts a noisy stream just after a push that leaves a
// primary candidate unresolved, found with a serial pipeline journaling on
// the side.
func pendingPrefix(t *testing.T, g *gen.Generator, primary, veto detector.Detector) seq.Stream {
	t.Helper()
	noisy := g.Noisy(3_000, 9)
	j := obs.NewAlertJournal(nil)
	p, err := online.NewVetoPipeline(primary, veto, pipelineThreshold, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SetJournal(j)
	for i, sym := range noisy {
		if _, err := p.Push(sym); err != nil {
			t.Fatal(err)
		}
		c := j.Counts()
		if c[obs.DispositionRaised] > c[obs.DispositionEscalated]+c[obs.DispositionSuppressed] {
			return noisy[:i+1]
		}
	}
	t.Fatal("no prefix of the stream leaves a candidate pending")
	return nil
}

// checkResolved reads a pipeline journal holding one tenant's records and
// checks that every candidate raised was escalated or suppressed.
func checkResolved(t *testing.T, journal *bytes.Buffer, tenant string) {
	t.Helper()
	recs, err := obs.ReadAlerts(journal)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, rec := range recs {
		if rec.Tenant != tenant {
			t.Fatalf("record %+v journaled under another tenant", rec)
		}
		count[rec.Disposition]++
	}
	raised, esc, sup := count[obs.DispositionRaised], count[obs.DispositionEscalated], count[obs.DispositionSuppressed]
	if raised == 0 || raised != esc+sup {
		t.Fatalf("tenant %s journaled %d raised, %d escalated + %d suppressed", tenant, raised, esc, sup)
	}
}

// TestClosedPipelineResolvesPending: closing a tenant ends its stream, so
// every candidate its primary raised is journaled as escalated or
// suppressed — none stays pending in the journal forever.
func TestClosedPipelineResolvesPending(t *testing.T) {
	g := testGen(t)
	primary, veto := testMarkov(t, g), testStide(t, g)
	prefix := pendingPrefix(t, g, primary, veto)
	var buf bytes.Buffer
	s, err := NewServer(Config{Shards: 2, NewTenant: pipelinesOver(primary, veto, obs.NewAlertJournal(&buf))})
	if err != nil {
		t.Fatal(err)
	}
	if res := submitWait(t, s, "closed", prefix, true); res.Err != nil || !res.Closed {
		t.Fatalf("closing batch: err %v closed %v", res.Err, res.Closed)
	}
	s.Drain()
	checkResolved(t, &buf, "closed")
}

// TestDrainedPipelineResolvesPending: a drain ends the stream of every
// tenant still open, so a pipeline tenant that never closed resolves its
// pending candidates too.
func TestDrainedPipelineResolvesPending(t *testing.T) {
	g := testGen(t)
	primary, veto := testMarkov(t, g), testStide(t, g)
	prefix := pendingPrefix(t, g, primary, veto)
	var buf bytes.Buffer
	s, err := NewServer(Config{Shards: 2, NewTenant: pipelinesOver(primary, veto, obs.NewAlertJournal(&buf))})
	if err != nil {
		t.Fatal(err)
	}
	if res := submitWait(t, s, "open", prefix, false); res.Err != nil || res.Closed {
		t.Fatalf("open batch: err %v closed %v", res.Err, res.Closed)
	}
	s.Drain()
	checkResolved(t, &buf, "open")
}

// twinTenant scores one stream with two scorers of equal extent, so both
// become ready on the same symbol; responses interleave a, b, a, b, ...
type twinTenant struct{ a, b *online.Scorer }

func (t twinTenant) PushBatch(syms []alphabet.Symbol) ([]float64, int, error) {
	var out []float64
	for _, sym := range syms {
		ra, ready, err := t.a.Push(sym)
		if err != nil {
			return out, 0, err
		}
		rb, _, err := t.b.Push(sym)
		if err != nil {
			return out, 0, err
		}
		if ready {
			out = append(out, ra, rb)
		}
	}
	return out, 0, nil
}

func (t twinTenant) SetTenant(string) {}
func (t twinTenant) Reset()           { t.a.Reset(); t.b.Reset() }

// TestSharedModelsAcrossShards runs tenants on several shards at once over
// one shared nn and one shared stide model; under -race it proves scoring
// writes nothing the tenants share, and the responses still equal batch.
func TestSharedModelsAcrossShards(t *testing.T) {
	g := testGen(t)
	nn, st := testNN(t, g), testStide(t, g)
	if nn.Extent() != st.Extent() {
		t.Fatalf("extents %d and %d differ", nn.Extent(), st.Extent())
	}
	s, err := NewServer(Config{Shards: 4, QueueDepth: 8, NewTenant: func() (TenantScorer, error) {
		a, err := online.NewScorer(nn)
		if err != nil {
			return nil, err
		}
		b, err := online.NewScorer(st)
		if err != nil {
			return nil, err
		}
		return twinTenant{a, b}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]seq.Stream, 8)
	for i := range streams {
		streams[i] = g.Noisy(600, uint64(100+i))
	}
	got := serveStreams(t, s, streams)
	for i, stream := range streams {
		var gotNN, gotStide []float64
		for j := 0; j+1 < len(got[i]); j += 2 {
			gotNN = append(gotNN, got[i][j])
			gotStide = append(gotStide, got[i][j+1])
		}
		for _, c := range []struct {
			det detector.Detector
			got []float64
		}{{nn, gotNN}, {st, gotStide}} {
			want, err := c.det.Score(stream)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("tenant %d %s", i, c.det.Name()), c.got, want)
		}
	}
}

// tenantOnShard finds a tenant id hashing to the given shard.
func tenantOnShard(t testing.TB, s *Server, shard int) string {
	t.Helper()
	return tenantsOnShard(t, s, shard, 1)[0]
}

// tenantsOnShard finds n distinct tenant ids hashing to the given shard.
func tenantsOnShard(t testing.TB, s *Server, shard, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < 10_000 && len(ids) < n; i++ {
		if id := fmt.Sprintf("probe-%d", i); s.TenantShard(id) == shard {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("found %d of %d tenant ids for shard %d", len(ids), n, shard)
	}
	return ids
}

// TestBackpressureStalledShard pins one shard's worker and shows the
// contract: that shard's tenants get ErrBusy immediately (no blocking, no
// queue growth past the bound), while tenants on other shards stream
// unimpeded.
func TestBackpressureStalledShard(t *testing.T) {
	const depth = 2
	s := newTestServer(t, 2, depth, 0)
	defer s.Drain()

	stalled := tenantOnShard(t, s, 0)
	flowing := tenantOnShard(t, s, 1)
	syms := []alphabet.Symbol{0, 1, 2, 3}

	release := stallShard(t, s, stalled, depth)
	// Submissions to the stalled shard reject instantly instead of blocking.
	done := make(chan error, 1)
	go func() { done <- s.Submit(stalled, syms, false, func(Result) {}) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("saturated shard: %v, want ErrBusy", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked on a saturated shard")
	}
	if got := s.Stats().Busy; got == 0 {
		t.Fatal("busy rejection not counted")
	}

	// The other shard is unaffected.
	for i := 0; i < 2*depth; i++ {
		if res := submitWait(t, s, flowing, syms, false); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	close(release)
}

// stallShard occupies the worker of tenant's shard with a task that blocks
// until the returned channel is closed, then fills that shard's queue of
// the given depth.
func stallShard(t *testing.T, s *Server, tenant string, depth int) chan<- struct{} {
	t.Helper()
	syms := []alphabet.Symbol{0, 1, 2, 3}
	started := make(chan struct{})
	release := make(chan struct{})
	if err := s.Submit(tenant, syms, false, func(Result) {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < depth; i++ {
		if err := s.Submit(tenant, syms, false, func(Result) {}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	return release
}

// TestDrainZeroLoss is the shutdown invariant: Drain mid-load loses no
// accepted event — every batch acknowledged to a submitter is scored, and
// its done callback fires, before Drain returns.
func TestDrainZeroLoss(t *testing.T) {
	s := newTestServer(t, 4, 16, 0)
	const submitters = 8
	syms := []alphabet.Symbol{0, 1, 2, 3, 4, 5}

	var accepted, completed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("drain-%d", i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := s.Submit(tenant, syms, false, func(Result) {
					completed.Add(int64(len(syms)))
				})
				switch {
				case err == nil:
					accepted.Add(int64(len(syms)))
				case errors.Is(err, ErrBusy):
					runtime.Gosched()
				case errors.Is(err, ErrDraining):
					return
				default:
					t.Errorf("tenant %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	stats := s.Drain()
	close(stop)
	wg.Wait()

	if stats.Accepted != stats.Scored {
		t.Fatalf("accepted %d != scored %d after drain", stats.Accepted, stats.Scored)
	}
	// Submitters may have had acks in flight when Drain snapshotted; settle
	// against the final counters.
	final := s.Stats()
	if got := accepted.Load(); got != final.Accepted {
		t.Fatalf("submitters acked %d, server accepted %d", got, final.Accepted)
	}
	if got := completed.Load(); got != final.Scored {
		t.Fatalf("callbacks delivered %d events, server scored %d", got, final.Scored)
	}
	if final.Accepted == 0 {
		t.Fatal("drain test accepted no events")
	}
	// Post-drain submissions are refused.
	if err := s.Submit("late", syms, false, func(Result) {}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Submit: %v, want ErrDraining", err)
	}
}

// TestConcurrentDrainsWaitForFlush: every Drain, the second of two
// concurrent ones included, returns only after the accepted batches are
// scored.
func TestConcurrentDrainsWaitForFlush(t *testing.T) {
	const depth = 2
	s := newTestServer(t, 2, depth, 0)
	release := stallShard(t, s, tenantOnShard(t, s, 0), depth)
	stats := make(chan Stats, 2)
	for range 2 {
		go func() { stats <- s.Drain() }()
	}
	// Let both calls reach the flush; a call that starts after the release
	// only weakens the test.
	time.Sleep(20 * time.Millisecond)
	close(release)
	for range 2 {
		if st := <-stats; st.Accepted != st.Scored {
			t.Fatalf("Drain returned with accepted %d != scored %d", st.Accepted, st.Scored)
		}
	}
}

// TestCloseRecyclesScorer checks the free-list path end to end: closing a tenant
// returns its scorer, and a re-opened tenant starts a fresh stream rather
// than resuming the old window.
func TestCloseRecyclesScorer(t *testing.T) {
	g := testGen(t)
	s := newTestServer(t, 2, 8, 0)
	defer s.Drain()

	stream := g.Noisy(600, 1)
	want := batchResponses(t, g, stream)

	for round := 0; round < 3; round++ {
		res := submitWait(t, s, "recycled", stream, false)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if len(res.Responses) != len(want) {
			t.Fatalf("round %d: %d responses, want %d", round, len(res.Responses), len(want))
		}
		for j := range want {
			if math.Float64bits(res.Responses[j]) != math.Float64bits(want[j]) {
				t.Fatalf("round %d response %d: %v != %v", round, j, res.Responses[j], want[j])
			}
		}
		closed := submitWait(t, s, "recycled", nil, true)
		if !closed.Closed {
			t.Fatalf("round %d: close not acknowledged", round)
		}
	}
	if s.Stats().Tenants != 0 {
		t.Fatalf("%d tenants left after closes", s.Stats().Tenants)
	}
}

// TestTenantLifecycle drives the shard-owned tenant tables at every shard
// count, and once with every tenant on one shard. Each tenant's close batch
// and its next session go in back to back, with no wait on a done, and each
// session must still score as a stream of its own. A brand-new tenant
// refused as busy must leave no tenant and no factory call behind. After
// Drain, accepted == scored and the tenants still open are counted.
func TestTenantLifecycle(t *testing.T) {
	g := testGen(t)
	det := testStide(t, g)
	const tenants, depth = 6, 2
	sessions := make([][2]seq.Stream, tenants)
	events := 0
	for i := range sessions {
		sessions[i] = [2]seq.Stream{g.Noisy(400, uint64(2*i)), g.Noisy(250, uint64(2*i+1))}
		events += len(sessions[i][0]) + len(sessions[i][1])
	}
	for _, tc := range []struct {
		shards   int
		oneShard bool
	}{{1, false}, {2, false}, {8, false}, {8, true}} {
		t.Run(fmt.Sprintf("shards=%d/oneShard=%v", tc.shards, tc.oneShard), func(t *testing.T) {
			var created atomic.Int64
			newTenant := tenantsOver(det, 0)
			s, err := NewServer(Config{Shards: tc.shards, QueueDepth: depth, NewTenant: func() (TenantScorer, error) {
				created.Add(1)
				return newTenant()
			}})
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, tenants)
			for i := range ids {
				ids[i] = fmt.Sprintf("life-%d", i)
			}
			if tc.oneShard {
				ids = tenantsOnShard(t, s, 0, tenants)
			}

			// got[i][k] is only appended to by tenant i's shard worker and
			// read after Drain has joined the workers.
			got := make([][2][]float64, tenants)
			var wg, pending sync.WaitGroup
			for i, id := range ids {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k, stream := range sessions[i] {
						for off := 0; off < len(stream); off += raggedBatch {
							end := min(off+raggedBatch, len(stream))
							closeAfter := k == 0 && end == len(stream)
							for {
								pending.Add(1)
								err := s.Submit(id, stream[off:end], closeAfter, func(res Result) {
									defer pending.Done()
									if res.Err != nil || res.Closed != closeAfter {
										t.Errorf("tenant %s session %d: err %v closed %v", id, k, res.Err, res.Closed)
									}
									got[i][k] = append(got[i][k], res.Responses...)
								})
								if err == nil {
									break
								}
								pending.Done()
								if !errors.Is(err, ErrBusy) {
									t.Errorf("Submit(%s): %v", id, err)
									return
								}
								runtime.Gosched()
							}
						}
					}
				}()
			}
			wg.Wait()
			pending.Wait() // so that no other shard moves the counts below

			// Stall the shard of a still-open tenant; a brand-new tenant
			// on that shard is refused and must leave nothing behind.
			release := stallShard(t, s, ids[0], depth)
			var newcomer string
			for _, id := range tenantsOnShard(t, s, s.TenantShard(ids[0]), tenants+1) {
				if !slices.Contains(ids, id) {
					newcomer = id
					break
				}
			}
			before, calls := s.Stats().Tenants, created.Load()
			if err := s.Submit(newcomer, []alphabet.Symbol{1}, false, func(Result) {}); !errors.Is(err, ErrBusy) {
				t.Fatalf("new tenant on a full shard: %v, want ErrBusy", err)
			}
			if after := s.Stats().Tenants; after != before {
				t.Fatalf("busy rejection moved Tenants %d -> %d", before, after)
			}
			if n := created.Load(); n != calls {
				t.Fatalf("busy rejection called NewTenant %d times", n-calls)
			}
			close(release)

			stats := s.Drain()
			if stats.Accepted != stats.Scored {
				t.Fatalf("drain: accepted %d != scored %d", stats.Accepted, stats.Scored)
			}
			stalled := int64(4 * (1 + depth)) // stallShard's stall and fill batches
			if stats.Accepted != int64(events)+stalled {
				t.Fatalf("accepted %d, want %d", stats.Accepted, int64(events)+stalled)
			}
			if stats.Tenants != tenants {
				t.Fatalf("Tenants = %d after drain, want the %d open second sessions", stats.Tenants, tenants)
			}
			for i := range ids {
				for k, stream := range sessions[i] {
					want, err := det.Score(stream)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("tenant %d session %d", i, k), got[i][k], want)
				}
			}
		})
	}
}

// TestRecycledTenantIsClean: a closed tenant's scorer is reused for the
// next new tenant, carrying nothing of the previous stream — Seen, the
// response ring, and the responses themselves match a fresh scorer.
func TestRecycledTenantIsClean(t *testing.T) {
	g := testGen(t)
	det := testStide(t, g)
	var mu sync.Mutex
	var created []*online.Scorer
	s, err := NewServer(Config{Shards: 2, NewTenant: func() (TenantScorer, error) {
		sc, err := online.NewScorer(det)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		created = append(created, sc)
		mu.Unlock()
		return ScorerTenant{S: sc}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Free lists are per shard, so both tenants go to one shard.
	ids := tenantsOnShard(t, s, 1, 2)
	if res := submitWait(t, s, ids[0], g.Noisy(300, 1), true); res.Err != nil || !res.Closed {
		t.Fatalf("first tenant: err %v closed %v", res.Err, res.Closed)
	}
	// A short second stream leaves the ring partly filled, where a stale
	// ring would be most visible.
	second := g.Noisy(20, 2)
	res := submitWait(t, s, ids[1], second, false)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// The scorer is read before Drain, which ends the open tenant's stream;
	// submitWait has already seen the batch's callback, so the read is
	// ordered after the worker's push.
	defer s.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(created) != 1 {
		t.Fatalf("NewTenant called %d times, want 1 (the closed scorer recycled)", len(created))
	}
	want, err := det.Score(second)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "recycled", res.Responses, want)
	sc := created[0]
	if sc.Seen() != len(second) {
		t.Fatalf("recycled scorer Seen = %d, want %d", sc.Seen(), len(second))
	}
	sameBits(t, "recycled ring", sc.Recent(nil), want)
}

// TestNewTenantErrorPropagates: a failing NewTenant fails the batch, not the
// submission. The batch is accepted and counts as scored, its Result.Err
// carries the factory's error, no tenant is left open, and the next Submit
// for the same id calls the factory again.
func TestNewTenantErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	det := testStide(t, testGen(t))
	s, err := NewServer(Config{NewTenant: func() (TenantScorer, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return tenantsOver(det, 0)()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	res := submitWait(t, s, "t", []alphabet.Symbol{1}, false)
	if !errors.Is(res.Err, boom) || res.Responses != nil {
		t.Fatalf("result %+v, want Err %v and no responses", res, boom)
	}
	if st := s.Stats(); st.Accepted != 1 || st.Scored != 1 || st.Tenants != 0 {
		t.Fatalf("failed tenant left stats %+v", st)
	}
	if res := submitWait(t, s, "t", []alphabet.Symbol{1, 2}, false); res.Err != nil {
		t.Fatalf("retry: %v", res.Err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("NewTenant called %d times, want 2 (the failed open left nothing to reuse)", n)
	}
	if st := s.Stats(); st.Accepted != 3 || st.Scored != 3 || st.Tenants != 1 {
		t.Fatalf("after retry stats %+v", st)
	}
}

func TestNewServerRequiresNewTenant(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Fatal("nil NewTenant accepted")
	}
}

// TestSubmitValidation: invalid batches are rejected synchronously, before
// acceptance, so they can never violate the drain invariant.
func TestSubmitValidation(t *testing.T) {
	g := testGen(t)
	s, err := NewServer(Config{
		NewTenant:    tenantFactory(t, g, 0),
		AlphabetSize: g.Alphabet().Size(),
		MaxBatch:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	noop := func(Result) {}
	if err := s.Submit("", []alphabet.Symbol{1}, false, noop); err == nil {
		t.Fatal("empty tenant accepted")
	}
	if err := s.Submit("t", []alphabet.Symbol{255}, false, noop); err == nil {
		t.Fatal("out-of-alphabet symbol accepted")
	}
	if err := s.Submit("t", make([]alphabet.Symbol, 9), false, noop); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if got := s.Stats().Accepted; got != 0 {
		t.Fatalf("rejections counted as accepted: %d", got)
	}
}

func TestAlarmerTenantCountsAlarms(t *testing.T) {
	g := testGen(t)
	s, err := NewServer(Config{NewTenant: tenantFactory(t, g, 1.0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	// A noisy stream with a canonical rare sequence planted mid-stream must
	// raise at least one alarm at threshold 1 (stide alarms on any window
	// containing foreign content).
	mfs, err := gen.CanonicalMFS(6)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append(seq.Stream{}, g.Background()[:800]...), mfs...)
	stream = append(stream, g.Background()[800:1600]...)
	res := submitWait(t, s, "alarming", stream, false)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Alarms == 0 {
		t.Fatal("planted rare sequence raised no alarms")
	}
	if s.Stats().Alarms != int64(res.Alarms) {
		t.Fatalf("stats alarms %d != result %d", s.Stats().Alarms, res.Alarms)
	}
}

// BenchmarkServeIngest drives the submit path with a single hot tenant and
// reports per-event cost; the harness runs it with -benchmem so allocation
// regressions on the ingest path are visible.
func BenchmarkServeIngest(b *testing.B) {
	s := newTestServer(b, runtime.NumCPU(), 256, 0)
	const batch = 512
	g := testGen(b)
	stream := g.Noisy(batch, 42)
	ch := make(chan Result, 1)
	done := func(res Result) { ch <- res }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := s.Submit("bench", stream, false, done)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrBusy) {
				b.Fatal(err)
			}
			runtime.Gosched()
		}
		res := <-ch
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(batch*b.N)/elapsed, "events/s")
	}
	s.Drain()
}
