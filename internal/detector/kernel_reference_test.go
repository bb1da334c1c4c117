package detector_test

// The window families' per-window kernels retained as the reference for
// their batch kernels: the ScoreWindowBytes bodies and the scoreWindows
// loop that preceded AppendWindowScores, verbatim but for their receivers.
// Each reference model is rebuilt from the training stream exactly as Train
// builds the detector's own; the neural network's forward pass comes
// through its exported Prob, which runs the same kernel. The test holds
// every family's batch kernel to the reference loop bit for bit on seeded
// random buffers.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/detector/lbr"
	"adiv/internal/detector/markovdet"
	"adiv/internal/detector/nnet"
	"adiv/internal/detector/stide"
	"adiv/internal/detector/tstide"
	"adiv/internal/obs"
	"adiv/internal/seq"
)

// refScoreWindows is the retained scoring loop: it appends the kernel's
// response to every extent-length window of b, in order.
func refScoreWindows(k detector.WindowByteScorer, extent int, b []byte, dst []float64) ([]float64, error) {
	m := len(b) - extent + 1
	if m <= 0 {
		return dst, nil
	}
	base := len(dst)
	dst = slices.Grow(dst, m)[:base+m]
	out := dst[base:]
	for i := range out {
		r, err := k.ScoreWindowBytes(b[i : i+extent])
		if err != nil {
			return dst[:base+i], err
		}
		out[i] = r
	}
	return dst, nil
}

type refStide struct {
	window int
	normal *seq.DB
}

func (d *refStide) ScoreWindowBytes(w []byte) (float64, error) {
	if d.normal == nil {
		return 0, detector.ErrNotTrained
	}
	if len(w) != d.window {
		return 0, fmt.Errorf("stide: window length %d, want %d", len(w), d.window)
	}
	if !d.normal.ContainsBytes(w) {
		return 1, nil
	}
	return 0, nil
}

type refTStide struct {
	window int
	cutoff float64
	normal *seq.DB
}

func (d *refTStide) ScoreWindowBytes(w []byte) (float64, error) {
	if d.normal == nil {
		return 0, detector.ErrNotTrained
	}
	if len(w) != d.window {
		return 0, fmt.Errorf("tstide: window length %d, want %d", len(w), d.window)
	}
	limit := d.cutoff * float64(d.normal.Total())
	c := d.normal.CountBytes(w)
	if c == 0 || float64(c) < limit {
		return 1, nil
	}
	return 0, nil
}

type refLB struct {
	window int
	db     *seq.DB
	normal [][]byte
}

func similarityBytes(x, y []byte) int {
	sim, run := 0, 0
	for i := range x {
		if x[i] == y[i] {
			run++
			sim += run
		} else {
			run = 0
		}
	}
	return sim
}

func (d *refLB) ScoreWindowBytes(w []byte) (float64, error) {
	if d.normal == nil {
		return 0, detector.ErrNotTrained
	}
	if len(w) != d.window {
		return 0, fmt.Errorf("lbr: window length %d, want %d", len(w), d.window)
	}
	if d.db.ContainsBytes(w) {
		return 0, nil
	}
	simMax := float64(lbr.MaxSimilarity(d.window))
	best := 0
	for _, normal := range d.normal {
		if s := similarityBytes(normal, w); s > best {
			best = s
		}
	}
	return 1 - float64(best)/simMax, nil
}

type refMarkov struct {
	window   int
	lambda   float64
	k        int
	contexts *seq.DB
	grams    *seq.DB
}

func (d *refMarkov) probBytes(gram []byte) float64 {
	ctxCount := d.contexts.CountBytes(gram[:d.window])
	if d.lambda == 0 {
		if ctxCount == 0 {
			return 0
		}
		return float64(d.grams.CountBytes(gram)) / float64(ctxCount)
	}
	denom := float64(ctxCount) + d.lambda*float64(d.k)
	if denom == 0 {
		return 0
	}
	return (float64(d.grams.CountBytes(gram)) + d.lambda) / denom
}

func (d *refMarkov) ScoreWindowBytes(w []byte) (float64, error) {
	if d.contexts == nil {
		return 0, detector.ErrNotTrained
	}
	if len(w) != d.window+1 {
		return 0, fmt.Errorf("markovdet: gram length %d, want %d", len(w), d.window+1)
	}
	return 1 - d.probBytes(w), nil
}

type refNN struct {
	window int
	d      *nnet.Detector
}

// prob is the kernel's P̂(gram[DW] | gram[:DW]), through nnet's Prob.
func (k *refNN) prob(gram []byte) float64 {
	p, err := k.d.Prob(seq.FromBytes(gram))
	if err != nil {
		panic(err)
	}
	return p
}

func (k *refNN) ScoreWindowBytes(w []byte) (float64, error) {
	if len(w) != k.window+1 {
		return 0, fmt.Errorf("nnet: gram length %d, want %d", len(w), k.window+1)
	}
	return 1 - k.prob(w), nil
}

// kernelFamily builds one family's detector at a window and the reference
// kernel over the same training stream; ref gets a nil train for the
// untrained reference.
type kernelFamily struct {
	name string
	new  func(dw int) (detector.Detector, error)
	ref  func(d detector.Detector, train seq.Stream, dw int) detector.WindowByteScorer
}

func mustBuild(s seq.Stream, width int) *seq.DB {
	db, err := seq.Build(s, width)
	if err != nil {
		panic(err)
	}
	return db
}

func kernelFamilies() []kernelFamily {
	markov := func(lambda float64) func(detector.Detector, seq.Stream, int) detector.WindowByteScorer {
		return func(_ detector.Detector, train seq.Stream, dw int) detector.WindowByteScorer {
			r := &refMarkov{window: dw, lambda: lambda}
			if train != nil {
				r.contexts, r.grams = mustBuild(train, dw), mustBuild(train, dw+1)
				for _, s := range train {
					r.k = max(r.k, int(s)+1)
				}
			}
			return r
		}
	}
	return []kernelFamily{
		{"stide", func(dw int) (detector.Detector, error) { return stide.New(dw) },
			func(_ detector.Detector, train seq.Stream, dw int) detector.WindowByteScorer {
				r := &refStide{window: dw}
				if train != nil {
					r.normal = mustBuild(train, dw)
				}
				return r
			}},
		{"tstide", func(dw int) (detector.Detector, error) { return tstide.New(dw, 0.02) },
			func(_ detector.Detector, train seq.Stream, dw int) detector.WindowByteScorer {
				r := &refTStide{window: dw, cutoff: 0.02}
				if train != nil {
					r.normal = mustBuild(train, dw)
				}
				return r
			}},
		{"lb", func(dw int) (detector.Detector, error) { return lbr.New(dw) },
			func(_ detector.Detector, train seq.Stream, dw int) detector.WindowByteScorer {
				r := &refLB{window: dw}
				if train != nil {
					r.db = mustBuild(train, dw)
					r.normal = make([][]byte, 0, r.db.Distinct())
					for _, w := range r.db.Common(0) {
						r.normal = append(r.normal, w.Bytes())
					}
				}
				return r
			}},
		{"markov", func(dw int) (detector.Detector, error) { return markovdet.New(dw) }, markov(0)},
		{"markov-smoothed", func(dw int) (detector.Detector, error) { return markovdet.NewSmoothed(dw, 0.5) }, markov(0.5)},
		{"nn", func(dw int) (detector.Detector, error) {
			return nnet.New(dw, nnet.Config{Hidden: 5, LearningRate: 0.3, Momentum: 0.5, Epochs: 3, Seed: 3})
		}, func(d detector.Detector, _ seq.Stream, dw int) detector.WindowByteScorer {
			return &refNN{window: dw, d: d.(*nnet.Detector)}
		}},
	}
}

// batchKernel returns d's batch kernel: d itself when it is one, and
// otherwise (the network, whose kernel owns scratch) one Push into a fresh
// stream, which hands the kernel exactly b.
func batchKernel(d detector.Detector) detector.WindowScorer {
	if k, ok := d.(detector.WindowScorer); ok {
		return k
	}
	return viaStream{d}
}

type viaStream struct{ d detector.Detector }

func (v viaStream) AppendWindowScores(b []byte, dst []float64) ([]float64, error) {
	s, err := v.d.NewStream()
	if err != nil {
		return dst, err
	}
	syms := make([]alphabet.Symbol, len(b))
	for i, c := range b {
		syms[i] = alphabet.Symbol(c)
	}
	return s.Push(syms, dst)
}

// kernelBuffers draws the test buffers: every length up to 40, then every
// 23rd up to 600, each spliced from training stretches with random symbols
// and out-of-alphabet bytes between them, so every window width meets
// members, near misses and foreign windows.
func kernelBuffers(src *rand.Rand, train []byte, k int) [][]byte {
	var out [][]byte
	for n := 0; n <= 600; n++ {
		if n > 40 && n%23 != 0 {
			continue
		}
		b := make([]byte, 0, n)
		for len(b) < n {
			switch r := src.IntN(10); {
			case r == 0:
				b = append(b, byte(k+src.IntN(256-k)))
			case r <= 2:
				b = append(b, byte(src.IntN(k)))
			default:
				i := src.IntN(len(train))
				b = append(b, train[i:min(len(train), i+1+src.IntN(40))]...)
			}
		}
		out = append(out, b[:n])
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestBatchKernelsMatchReference scores the buffers through every family's
// batch kernel at DW 1–15 (extents up to 16, so the DW+1-gram families
// take the hashed path from DW 8), trained on a stream and on a stream
// shorter than one extent, and requires the reference loop's responses
// bit for bit, appended after a prefix that must survive, and the same
// errors: none when trained, ErrNotTrained before training.
func TestBatchKernelsMatchReference(t *testing.T) {
	const k = 8
	src := rand.New(rand.NewPCG(33, 1))
	train := make([]byte, 300)
	for i := range train {
		train[i] = byte(src.IntN(k))
	}
	// Repeat stretches so windows recur at every width.
	for i := 0; i < 4; i++ {
		j := src.IntN(len(train) - 30)
		train = append(train, train[j:j+30]...)
	}
	trainStream := seq.FromBytes(train)
	buffers := kernelBuffers(src, train, k)
	prefix := []float64{-1, math.Pi}

	for _, f := range kernelFamilies() {
		for dw := 1; dw <= 15; dw++ {
			t.Run(fmt.Sprintf("%s/DW=%d", f.name, dw), func(t *testing.T) {
				d, err := f.new(dw)
				if err != nil {
					t.Fatal(err)
				}
				// Before training the kernel reports ErrNotTrained for any
				// buffer, as the reference loop did for every buffer that
				// reached its kernel, one holding a window. (The network's
				// untrained reference has no model to ask.)
				untrained, kernel := f.ref(d, nil, dw), batchKernel(d)
				for _, b := range buffers {
					got, err := kernel.AppendWindowScores(b, slices.Clone(prefix))
					if !errors.Is(err, detector.ErrNotTrained) || !slices.Equal(got, prefix) {
						t.Fatalf("untrained kernel over %d bytes: %v, %v", len(b), got, err)
					}
					if _, nn := untrained.(*refNN); !nn && len(b) >= d.Extent() {
						if _, err := refScoreWindows(untrained, d.Extent(), b, nil); !errors.Is(err, detector.ErrNotTrained) {
							t.Fatalf("untrained reference over %d bytes: %v", len(b), err)
						}
					}
				}

				// A training stream shorter than the extent leaves the
				// databases without a full window, so every window is
				// foreign; the network refuses to train on it.
				extent := d.Extent()
				for _, train := range []seq.Stream{trainStream[:extent-1], trainStream} {
					if err := d.Train(train); err != nil {
						if f.name == "nn" && len(train) < extent {
							continue
						}
						t.Fatal(err)
					}
					ref := f.ref(d, train, dw)
					for _, b := range buffers {
						want, wantErr := refScoreWindows(ref, extent, b, slices.Clone(prefix))
						got, err := kernel.AppendWindowScores(b, slices.Clone(prefix))
						if err != nil || wantErr != nil {
							t.Fatalf("train %d, %d bytes: error %v, reference %v", len(train), len(b), err, wantErr)
						}
						if !bitsEqual(got, want) {
							t.Fatalf("train %d, %d bytes: responses differ from the reference\n got %v\nwant %v",
								len(train), len(b), got, want)
						}
					}
					if ws, ok := detector.AsWindowByteScorer(detector.Observed(d, obs.New())); ok {
						checkOneWindow(t, ws, ref, extent, buffers[len(buffers)-1])
					} else if f.name != "nn" {
						t.Fatalf("%s exposes no one-window scorer", f.name)
					}
				}
			})
		}
	}
}

// checkOneWindow holds AsWindowByteScorer's adapter to the reference on
// every window of b, and requires an error for a window of the wrong
// length.
func checkOneWindow(t *testing.T, ws, ref detector.WindowByteScorer, extent int, b []byte) {
	t.Helper()
	for i := 0; i+extent <= len(b); i++ {
		got, err := ws.ScoreWindowBytes(b[i : i+extent])
		want, refErr := ref.ScoreWindowBytes(b[i : i+extent])
		if err != nil || refErr != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("window %d: %v, %v; reference %v, %v", i, got, err, want, refErr)
		}
	}
	for _, n := range []int{0, extent - 1, extent + 1} {
		if _, err := ws.ScoreWindowBytes(b[:n]); err == nil {
			t.Fatalf("window of length %d accepted at extent %d", n, extent)
		}
	}
}
