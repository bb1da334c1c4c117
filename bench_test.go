// Benchmark harness: one bench per reproduced figure (the code that
// regenerates each figure's data is what each bench measures), plus
// detector micro-benchmarks and the ablation sweeps called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package adiv_test

import (
	"fmt"
	"io"
	"math/rand/v2"
	"testing"

	"adiv"
)

// benchCorpus shares the reduced corpus with the figure tests. Corpus
// construction cost is excluded from every figure bench via b.ResetTimer.
func benchCorpus(b *testing.B) *adiv.Corpus {
	b.Helper()
	return sharedCorpus(b)
}

// BenchmarkFigure2IncidentSpan measures incident-span computation and
// rendering for the paper's Figure-2 parameters (DW=5, AS=8).
func BenchmarkFigure2IncidentSpan(b *testing.B) {
	corpus := benchCorpus(b)
	p := corpus.Placements[8]
	a := adiv.EvaluationAlphabet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := adiv.WriteIncidentSpan(io.Discard, a, p, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// figureMapBench measures regenerating one detector's full performance map
// (train at every window 2-15, score all eight test streams).
func figureMapBench(b *testing.B, name string, factory adiv.Factory, opts adiv.EvalOptions) {
	corpus := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := corpus.PerformanceMap(name, factory, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Cells()) == 0 {
			b.Fatal("empty map")
		}
	}
}

// BenchmarkFigure3LBMap regenerates the Lane & Brodley performance map.
func BenchmarkFigure3LBMap(b *testing.B) {
	figureMapBench(b, adiv.DetectorLaneBrodley, adiv.LaneBrodleyFactory, adiv.DefaultEvalOptions())
}

// BenchmarkFigure4MarkovMap regenerates the Markov performance map.
func BenchmarkFigure4MarkovMap(b *testing.B) {
	figureMapBench(b, adiv.DetectorMarkov, adiv.MarkovFactory, adiv.DefaultEvalOptions())
}

// BenchmarkFigure5StideMap regenerates the Stide performance map.
func BenchmarkFigure5StideMap(b *testing.B) {
	figureMapBench(b, adiv.DetectorStide, adiv.StideFactory, adiv.DefaultEvalOptions())
}

// BenchmarkFigure6NNMap regenerates the neural-network performance map
// (fourteen network trainings per iteration; by far the heaviest figure).
func BenchmarkFigure6NNMap(b *testing.B) {
	figureMapBench(b, adiv.DetectorNeuralNet, adiv.NeuralNetFactory(adiv.DefaultNNConfig()), adiv.NeuralNetEvalOptions())
}

// BenchmarkFigure7LBSimilarity measures the Figure-7 similarity
// calculation.
func BenchmarkFigure7LBSimilarity(b *testing.B) {
	normal := adiv.Stream{0, 1, 2, 3, 4}
	foreign := adiv.Stream{0, 1, 2, 3, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adiv.LBSimilarity(normal, foreign); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection7Suppression regenerates the false-alarm-suppression
// experiment: Markov primary, Stide veto, rare-containing test data.
func BenchmarkSection7Suppression(b *testing.B) {
	corpus := benchCorpus(b)
	noisy, err := corpus.NoisyStream(8_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	placement, err := corpus.InjectInto(noisy, 6, 8)
	if err != nil {
		b.Fatal(err)
	}
	markov, err := adiv.NewMarkov(8)
	if err != nil {
		b.Fatal(err)
	}
	stide, err := adiv.NewStide(8)
	if err != nil {
		b.Fatal(err)
	}
	if err := adiv.TrainAll(corpus.Training, markov, stide); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := adiv.Suppress(markov, stide, placement, adiv.RareSensitiveThreshold, adiv.StrictThreshold)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Suppressed.Hit {
			b.Fatal("suppression lost the hit")
		}
	}
}

// BenchmarkMFSScan regenerates the Section-4.1 prevalence measurement on
// quasi-natural daemon traces.
func BenchmarkMFSScan(b *testing.B) {
	profile := adiv.DaemonTraceProfile()
	train, err := adiv.GenerateTrace(profile, 1, 150_000)
	if err != nil {
		b.Fatal(err)
	}
	test, err := adiv.GenerateTrace(profile, 2, 50_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := adiv.ScanMFS(train, test, 12)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Positions == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkCorpusBuild measures the end-to-end data-synthesis pipeline
// (training generation, anomaly verification, boundary-safe injection).
func BenchmarkCorpusBuild(b *testing.B) {
	cfg := adiv.QuickConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adiv.BuildCorpus(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// trainedDetector builds and trains one detector on the shared corpus.
func trainedDetector(b *testing.B, name string, dw int) adiv.Detector {
	b.Helper()
	corpus := benchCorpus(b)
	det, err := adiv.NewDetector(name, dw)
	if err != nil {
		b.Fatal(err)
	}
	if err := det.Train(corpus.Training); err != nil {
		b.Fatal(err)
	}
	return det
}

// BenchmarkDetectorScore compares the detectors' scoring throughput at
// the same window length on the same stream — the diversity of similarity
// metrics has a cost axis too.
func BenchmarkDetectorScore(b *testing.B) {
	for _, name := range adiv.AllDetectorNames() {
		b.Run(name, func(b *testing.B) {
			corpus := benchCorpus(b)
			det := trainedDetector(b, name, 8)
			stream := corpus.Placements[6].Stream
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Score(stream); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(stream)))
		})
	}
	// L&B answers a window of the training profile with one lookup and
	// scans the whole profile for any other, so the placement stream above
	// measures mostly the lookup. These cases score streams with no
	// training window at all, which measures the scan.
	for _, dw := range []int{6, 15} {
		b.Run(fmt.Sprintf("lb-foreign/DW=%d", dw), func(b *testing.B) {
			corpus := benchCorpus(b)
			det := trainedDetector(b, adiv.DetectorLaneBrodley, dw)
			stream := foreignStream(b, corpus, dw, len(corpus.Placements[6].Stream))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Score(stream); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(stream)))
		})
	}
}

// foreignStream draws n seeded random symbols over the training alphabet,
// redrawing any symbol that would close a width-dw window seen in training.
func foreignStream(b *testing.B, corpus *adiv.Corpus, dw, n int) adiv.Stream {
	b.Helper()
	db, err := corpus.TrainIndex.DB(dw)
	if err != nil {
		b.Fatal(err)
	}
	k := corpus.TrainIndex.Corpus().AlphabetSize()
	src := rand.New(rand.NewPCG(1, uint64(dw)))
	stream := make(adiv.Stream, 0, n)
	for len(stream) < n {
		stream = append(stream, adiv.Symbol(src.IntN(k)))
		if len(stream) >= dw && db.Contains(stream[len(stream)-dw:]) {
			stream = stream[:len(stream)-1]
		}
	}
	return stream
}

// BenchmarkDetectorTrain compares training cost across the detectors.
func BenchmarkDetectorTrain(b *testing.B) {
	for _, name := range adiv.AllDetectorNames() {
		b.Run(name, func(b *testing.B) {
			corpus := benchCorpus(b)
			det, err := adiv.NewDetector(name, 8)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := det.Train(corpus.Training); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWindow sweeps the detector window for Stide — the
// parameter the paper identifies as decisive — measuring how scoring cost
// scales with DW.
func BenchmarkAblationWindow(b *testing.B) {
	for _, dw := range []int{2, 6, 10, 15} {
		b.Run(fmt.Sprintf("DW=%d", dw), func(b *testing.B) {
			corpus := benchCorpus(b)
			det := trainedDetector(b, adiv.DetectorStide, dw)
			stream := corpus.Placements[6].Stream
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Score(stream); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNNDepth compares the single- and two-hidden-layer
// architectures at equal total training effort.
func BenchmarkAblationNNDepth(b *testing.B) {
	configs := map[string]adiv.NNConfig{}
	shallow := adiv.DefaultNNConfig()
	shallow.Epochs = 100
	configs["1-layer"] = shallow
	deep := shallow
	deep.Hidden2 = 12
	configs["2-layer"] = deep
	for _, name := range []string{"1-layer", "2-layer"} {
		cfg := configs[name]
		b.Run(name, func(b *testing.B) {
			corpus := benchCorpus(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det, err := adiv.NewNeuralNet(6, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := det.Train(corpus.Training); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNNEpochs sweeps the neural network's training epochs,
// the tuning knob behind the Figure-6 sensitivity result.
func BenchmarkAblationNNEpochs(b *testing.B) {
	for _, epochs := range []int{10, 100, 400} {
		b.Run(fmt.Sprintf("epochs=%d", epochs), func(b *testing.B) {
			corpus := benchCorpus(b)
			cfg := adiv.DefaultNNConfig()
			cfg.Epochs = epochs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det, err := adiv.NewNeuralNet(6, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := det.Train(corpus.Training); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamingScore measures the online scoring adapter: "stream" is
// a whole-stream PushAll including scorer construction (comparable to
// BenchmarkDetectorScore/stide), "push" is the steady-state per-symbol
// path (a batch of one), and "batch" is the served shape, 256-symbol
// PushBatch calls into a presized dst. Neither steady-state path may
// allocate at all — the benchmark asserts the zero-alloc contract
// outright.
func BenchmarkStreamingScore(b *testing.B) {
	corpus := benchCorpus(b)
	det := trainedDetector(b, adiv.DetectorStide, 8)
	stream := corpus.Placements[6].Stream
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scorer, err := adiv.NewStreamScorer(det)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := scorer.PushAll(stream); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(stream)))
	})
	b.Run("push", func(b *testing.B) {
		scorer, err := adiv.NewStreamScorer(det)
		if err != nil {
			b.Fatal(err)
		}
		// Warm past the initial window fill so every timed push scores.
		for _, sym := range stream[:16] {
			if _, _, err := scorer.Push(sym); err != nil {
				b.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := scorer.Push(stream[0]); err != nil {
				b.Fatal(err)
			}
		}); allocs != 0 {
			b.Fatalf("steady-state push allocates %v times, want 0", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := scorer.Push(stream[i%len(stream)]); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(1)
	})
	b.Run("batch", func(b *testing.B) {
		const size = 256
		scorer, err := adiv.NewStreamScorer(det)
		if err != nil {
			b.Fatal(err)
		}
		batches := len(stream) / size
		dst := make([]float64, 0, size)
		// One pass grows the stream's buffer to the batch size.
		for k := 0; k < batches; k++ {
			if _, err := scorer.PushBatch(stream[k*size:(k+1)*size], dst); err != nil {
				b.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := scorer.PushBatch(stream[:size], dst); err != nil {
				b.Fatal(err)
			}
		}); allocs != 0 {
			b.Fatalf("steady-state batch push allocates %v times, want 0", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % batches
			if _, err := scorer.PushBatch(stream[k*size:(k+1)*size], dst); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(size)
	})
}

// BenchmarkStreamingScoreTelemetry is BenchmarkStreamingScore/push with the
// full detection-telemetry stack attached — per-family latency and response
// sketches, alarm counters, and an alert journal on the thresholding layer.
// The delta against the uninstrumented push is the whole telemetry cost,
// and the zero-allocation steady-state contract must survive it (asserted
// outright, like the uninstrumented benchmark).
func BenchmarkStreamingScoreTelemetry(b *testing.B) {
	corpus := benchCorpus(b)
	det := trainedDetector(b, adiv.DetectorStide, 8)
	// Steady state means non-alarming: journal appends happen only on
	// alarms, so the benchmark pushes the training stream (every window
	// known to the detector) rather than anomaly-bearing test data.
	stream := corpus.Training
	alarmer, err := adiv.NewStreamAlarmer(det, 0.999)
	if err != nil {
		b.Fatal(err)
	}
	alarmer.Instrument(adiv.NewMetrics())
	alarmer.SetJournal(adiv.NewAlertJournal(nil))
	// Warm past the initial window fill so every timed push scores.
	for _, sym := range stream[:16] {
		if _, _, err := alarmer.Push(sym); err != nil {
			b.Fatal(err)
		}
	}
	// The probe walks the stream in order (a constant symbol would form a
	// foreign window, alarm, and journal — not steady state).
	next := 16
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := alarmer.Push(stream[next%len(stream)]); err != nil {
			b.Fatal(err)
		}
		next++
	}); allocs != 0 {
		b.Fatalf("instrumented steady-state push allocates %v times, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := alarmer.Push(stream[(next+i)%len(stream)]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1)
}

// BenchmarkAblationLFC compares raw Stide against LFC-smoothed Stide — the
// post-processing stage the paper's evaluation sets aside.
func BenchmarkAblationLFC(b *testing.B) {
	for _, frame := range []int{0, 8, 32} {
		name := "raw"
		if frame > 0 {
			name = fmt.Sprintf("frame=%d", frame)
		}
		b.Run(name, func(b *testing.B) {
			corpus := benchCorpus(b)
			var det adiv.Detector = trainedDetector(b, adiv.DetectorStide, 8)
			if frame > 0 {
				var err error
				det, err = adiv.WithSmoothing(det, frame)
				if err != nil {
					b.Fatal(err)
				}
			}
			stream := corpus.Placements[6].Stream
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Score(stream); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMarkovSmoothing compares maximum-likelihood against
// Laplace-smoothed Markov estimation — smoothing forfeits the exact-1
// responses the strict threshold requires.
func BenchmarkAblationMarkovSmoothing(b *testing.B) {
	for _, lambda := range []float64{0, 0.01, 1} {
		b.Run(fmt.Sprintf("lambda=%v", lambda), func(b *testing.B) {
			corpus := benchCorpus(b)
			det, err := adiv.NewSmoothedMarkov(8, lambda)
			if err != nil {
				b.Fatal(err)
			}
			if err := det.Train(corpus.Training); err != nil {
				b.Fatal(err)
			}
			stream := corpus.Placements[6].Stream
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Score(stream); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkROC measures a four-threshold ROC estimate over three
// rare-containing trials.
func BenchmarkROC(b *testing.B) {
	corpus := benchCorpus(b)
	det := trainedDetector(b, adiv.DetectorMarkov, 8)
	var placements []adiv.Placement
	for i := 0; i < 3; i++ {
		noisy, err := corpus.NoisyStream(6_000, uint64(20+i))
		if err != nil {
			b.Fatal(err)
		}
		p, err := corpus.InjectInto(noisy, 6, 8)
		if err != nil {
			b.Fatal(err)
		}
		placements = append(placements, p)
	}
	thresholds := []float64{0.5, 0.9, 0.98, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve, err := adiv.ROC(det, placements, thresholds)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := curve.AUC(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiagnose measures one Figure-1 decision-chain walk (a full
// window sweep of trained Stide detectors).
func BenchmarkDiagnose(b *testing.B) {
	corpus := benchCorpus(b)
	factory, opts, err := adiv.DetectorFactory(adiv.DetectorStide)
	if err != nil {
		b.Fatal(err)
	}
	in := adiv.DiagnosisInputs{
		Manifests:      true,
		Observed:       true,
		TrainIndex:     corpus.TrainIndex,
		RareCutoff:     adiv.RareCutoff,
		Placement:      corpus.Placements[7],
		Factory:        factory,
		MinWindow:      2,
		MaxWindow:      10,
		DeployedWindow: 5,
		Train:          corpus.Training,
		Opts:           opts,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := adiv.Diagnose(in)
		if err != nil {
			b.Fatal(err)
		}
		if v.Detected {
			b.Fatal("expected a mistuned verdict")
		}
	}
}

// BenchmarkHMM measures the extension detector's Baum-Welch training and
// forward-recursion scoring, per (states × alphabet) configuration so the
// kernel's cost scaling is visible per shape. "train" and "score" with no
// shape suffix are the evaluation default (DefaultHMMConfig, inferred
// alphabet), comparable across snapshots.
func BenchmarkHMM(b *testing.B) {
	corpus := benchCorpus(b)
	shapes := []struct {
		label    string
		states   int
		alphabet int // 0 infers from training, the default
	}{
		{"", 10, 0},
		{"states=4,k=auto", 4, 0},
		{"states=10,k=64", 10, 64},
	}
	for _, sh := range shapes {
		cfg := adiv.DefaultHMMConfig()
		cfg.States = sh.states
		cfg.AlphabetSize = sh.alphabet
		trainName, scoreName := "train", "score"
		if sh.label != "" {
			trainName += "/" + sh.label
			scoreName += "/" + sh.label
		}
		b.Run(trainName, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				det, err := adiv.NewHMM(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := det.Train(corpus.Training); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(scoreName, func(b *testing.B) {
			det, err := adiv.NewHMM(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := det.Train(corpus.Training); err != nil {
				b.Fatal(err)
			}
			stream := corpus.Placements[6].Stream
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Score(stream); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(stream)))
		})
	}
}

// BenchmarkInjection measures the boundary-safe injection search.
func BenchmarkInjection(b *testing.B) {
	corpus := benchCorpus(b)
	m, err := adiv.CanonicalMFS(6)
	if err != nil {
		b.Fatal(err)
	}
	ix := corpus.TrainIndex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adiv.InjectBoundarySafe(ix, corpus.Background, m, 2, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// gridTrain trains the four DB-backed detector families at every window of
// the evaluation grid, either each from the raw training stream or all from
// one shared training-database cache.
func gridTrain(b *testing.B, train adiv.Stream, dbs *adiv.SequenceCorpus) {
	b.Helper()
	for _, name := range []string{adiv.DetectorStide, adiv.DetectorTStide, adiv.DetectorLaneBrodley, adiv.DetectorMarkov} {
		for dw := 2; dw <= 15; dw++ {
			det, err := adiv.NewDetector(name, dw)
			if err != nil {
				b.Fatal(err)
			}
			if dbs != nil {
				err = adiv.TrainWithCorpus(det, dbs)
			} else {
				err = det.Train(train)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGridTrainUncached trains the full four-family evaluation grid
// with each detector rebuilding its sequence databases from the raw stream
// — the pre-cache cost of one perfmap/ensemble run's training phase.
func BenchmarkGridTrainUncached(b *testing.B) {
	corpus := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gridTrain(b, corpus.Training, nil)
	}
}

// BenchmarkGridTrainCached trains the same grid through a shared
// training-corpus cache: each width's database is built once and reused by
// every family that wants it (a fresh cache per iteration, so the build
// cost is measured, just not repeated).
func BenchmarkGridTrainCached(b *testing.B) {
	corpus := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dbs := adiv.NewSequenceCorpus(corpus.Training)
		gridTrain(b, nil, dbs)
	}
}

// BenchmarkNNTrainKernel isolates the neural-network training kernel — the
// hot loop behind BenchmarkFigure6NNMap — across SGD granularities:
// "seq" is exact per-example SGD (the reference semantics every figure is
// pinned to), "batch" applies per-example gradients batch-wise with a
// worker pool (bit-identical for every worker count).
func BenchmarkNNTrainKernel(b *testing.B) {
	corpus := benchCorpus(b)
	base := adiv.DefaultNNConfig()
	base.Epochs = 100
	variants := []struct {
		name string
		mut  func(*adiv.NNConfig)
	}{
		{"seq", func(*adiv.NNConfig) {}},
		{"batch8", func(c *adiv.NNConfig) { c.BatchSize = 8 }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := base
			v.mut(&cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det, err := adiv.NewNeuralNet(6, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := det.Train(corpus.Training); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectorScoreObserved pins down the cost of the observability
// wrapper around Detector.Score. "baseline" is the raw detector;
// "disabled" wraps with a nil registry (ObserveDetector returns the
// detector unwrapped, so this must match baseline exactly); "enabled"
// pays for the span, symbol counter, response histogram, and throughput
// gauge. Compare ns/op across the three to verify that runs without
// -metrics-out are unaffected.
func BenchmarkDetectorScoreObserved(b *testing.B) {
	corpus := benchCorpus(b)
	stream := corpus.Placements[6].Stream
	variants := []struct {
		name string
		wrap func(adiv.Detector) adiv.Detector
	}{
		{"baseline", func(d adiv.Detector) adiv.Detector { return d }},
		{"disabled", func(d adiv.Detector) adiv.Detector { return adiv.ObserveDetector(d, nil) }},
		{"enabled", func(d adiv.Detector) adiv.Detector { return adiv.ObserveDetector(d, adiv.NewMetrics()) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			det := v.wrap(trainedDetector(b, adiv.DetectorStide, 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Score(stream); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(stream)))
		})
	}
}
