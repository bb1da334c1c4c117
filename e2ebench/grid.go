package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"adiv"
	"adiv/internal/anomaly"
	"adiv/internal/core"
	"adiv/internal/detector"
	"adiv/internal/eval"
	"adiv/internal/gen"
	"adiv/internal/inject"
	"adiv/internal/seq"
)

// gridDigest is the FNV-1a digest of the lb, markov and stide maps'
// outcome grids under core.QuickConfig, in figure order. Those maps' shapes
// are properties of the data's structure, not of its seed, so every seed
// must reproduce it; a change to any of their cells fails the run. The nn
// map is left out: near its 0.999 capable floor a few cells flip between
// seeds. The traced run checks it cell for cell against its rebuild.
const gridDigest = "3bc924cda1d99ca4"

// digestFamilies are the families whose maps gridDigest covers.
var digestFamilies = []string{"lb", "markov", "stide"}

func gridConfig(seed uint64) core.Config {
	cfg := core.QuickConfig()
	cfg.Gen.Seed = seed
	return cfg
}

// buildMaps builds the four paper maps as perfmap does: one after another
// with eval.BuildMapCorpus, over the corpus's shared training databases, on
// one scheduler of j workers.
func buildMaps(c *core.Corpus, j int) (map[string]*eval.Map, error) {
	sched := eval.NewScheduler(j)
	maps := make(map[string]*eval.Map, len(gridFamilies))
	for _, name := range gridFamilies {
		factory, opts, err := adiv.DetectorFactory(name)
		if err != nil {
			return nil, err
		}
		opts.Scheduler = sched
		m, err := eval.BuildMapCorpus(name, factory, c.TrainingDBs(), c.Placements,
			c.Config.MinWindow, c.Config.MaxWindow, opts, nil)
		if err != nil {
			return nil, err
		}
		maps[name] = m
	}
	return maps, nil
}

// digestMaps hashes every cell's outcome of the digest families' maps.
func digestMaps(maps map[string]*eval.Map) string {
	h := fnv.New64a()
	for _, name := range digestFamilies {
		for _, a := range maps[name].Cells() {
			fmt.Fprintf(h, "%s %d %d %d;", name, a.AnomalySize, a.Window, a.Outcome)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// gridWork returns the cells in the grid and the test events they score.
func gridWork(c *core.Corpus) (cells, events int) {
	rows := c.Config.MaxWindow - c.Config.MinWindow + 1
	for _, p := range c.Placements {
		cells += rows * len(gridFamilies)
		events += rows * len(gridFamilies) * len(p.Stream)
	}
	return cells, events
}

// gridRep is one corpus build plus one four-map grid.
type gridRep struct {
	corpus      *core.Corpus
	maps        map[string]*eval.Map
	setup, wall time.Duration
	events      int
}

func runGridRep(cfg core.Config, j int, tl *tally) (gridRep, error) {
	start := time.Now()
	c, err := core.BuildCorpus(cfg)
	if err != nil {
		return gridRep{}, err
	}
	setup := time.Since(start)
	start = time.Now()
	maps, err := buildMaps(c, j)
	if err != nil {
		return gridRep{}, err
	}
	wall := time.Since(start)
	cells, events := gridWork(c)
	tl.add(int64(cells))
	got := digestMaps(maps)
	tl.check(got == gridDigest, "grid digest %s, want %s", got, gridDigest)
	return gridRep{corpus: c, maps: maps, setup: setup, wall: wall, events: events}, nil
}

// gridSetupRepeats is how many extra corpus builds are timed before each
// grid at j = nproc; setup_s is the median of these and the grids' own
// builds.
const gridSetupRepeats = 2

// runGrid is the untraced run of grid-quick: pairs of a grid at
// j = GOMAXPROCS = nproc and one at 1, alternating until the budget is
// spent, so both sample the host's drifting speed alike.
func runGrid(seed uint64, seconds float64, tl *tally) (*report, error) {
	cfg := gridConfig(seed)
	nproc := runtime.NumCPU()
	var setups, wallN, wall1 []float64
	var clock hostClock
	events := 0
	for start := time.Now(); len(wallN) < 2 || time.Since(start) < share(seconds, 1); {
		clock.sample()
		for r := 0; r < gridSetupRepeats; r++ {
			runtime.GC()
			t0 := time.Now()
			if _, err := core.BuildCorpus(cfg); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		runtime.GC()
		rep, err := runGridRep(cfg, nproc, tl)
		if err != nil {
			return nil, err
		}
		setups = append(setups, rep.setup.Seconds())
		wallN = append(wallN, rep.wall.Seconds())
		events = rep.events
		clock.sample()
		runtime.GC()
		withProcs(1, func() { rep, err = runGridRep(cfg, 1, tl) })
		if err != nil {
			return nil, err
		}
		wall1 = append(wall1, rep.wall.Seconds())
	}
	clock.sample()
	rep := scaled(&clock, median(setups), float64(events)/iqm(wallN), float64(events)/iqm(wall1),
		median(wallN)*1e3, quantile(wallN, 0.90)*1e3)
	rep.note("%d grids at j=%d and %d at j=1; latency_p90_ms is the p90 of the grid times at j=%d", len(wallN), nproc, len(wall1), nproc)
	return rep, nil
}

// runGridTraced rebuilds grid-quick from its layers' public calls — gen,
// seq, anomaly, inject, detector.TrainWith, eval.Assess — timing each, and
// requires the result to equal the untraced eval.BuildMapCorpus grid.
func runGridTraced(seed uint64, tl *tally) (*report, error) {
	cfg := gridConfig(seed)
	j := runtime.NumCPU()
	rep := &report{values: zeroLayers()}
	v := rep.values

	ref, err := runGridRep(cfg, j, tl)
	if err != nil {
		return nil, err
	}
	c, err := tracedCorpus(cfg, v)
	if err != nil {
		return nil, err
	}
	tl.check(c.Hash() == ref.corpus.Hash(), "traced corpus %s differs from core.BuildCorpus %s", c.Hash(), ref.corpus.Hash())
	hits0, misses0 := c.TrainingDBs().Stats()

	tg, err := tracedGrid(c, j)
	if err != nil {
		return nil, err
	}
	cells, _ := gridWork(c)
	tl.add(int64(cells))
	for _, name := range gridFamilies {
		tl.check(sameMap(tg.maps[name], ref.maps[name]), "traced %s map differs from eval.BuildMapCorpus", name)
		v["detector.train_ms."+name] = ms(tg.train[name])
		v["eval.cell_ms."+name] = ms(tg.cells[name])
	}
	hits, misses := c.TrainingDBs().Stats()
	v["seq.db_hits"] = float64(hits)
	v["seq.db_misses"] = float64(misses)
	busy := tg.busy()
	v["eval.occupancy"] = busy.Seconds() / (tg.wall.Seconds() * float64(j))
	v["eval.critical_path_ms"] = ms(tg.critical)
	v["grid.residual_ms"] = ms(ref.wall) - ms(busy)/float64(j)
	v["trace.overhead_ratio"] = tg.wall.Seconds() / ref.wall.Seconds()
	rep.note("traced grid: wall %.1f ms (untraced %.1f ms), db builds before training %d, during %d, hits %d",
		ms(tg.wall), ms(ref.wall), misses0, misses-misses0, hits-hits0)
	return rep, nil
}

// tracedCorpus performs core.BuildCorpus step by step. Every width's
// training database is built up front and timed on its own, so the
// verification, injection and training steps that follow time only their
// own work (a database they still build shows as a miss).
func tracedCorpus(cfg core.Config, v map[string]float64) (*core.Corpus, error) {
	g, err := gen.New(cfg.Gen)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	training := g.Training()
	v["gen.training_ms"] = ms(time.Since(start))

	start = time.Now()
	ix := seq.NewIndex(training)
	v["seq.index_ms"] = ms(time.Since(start))

	start = time.Now()
	for width := 1; width <= cfg.MaxWindow+1; width++ {
		if _, err := ix.DB(width); err != nil {
			return nil, err
		}
	}
	v["seq.db_build_ms"] = ms(time.Since(start))

	c := &core.Corpus{
		Config:     cfg,
		Training:   training,
		TrainIndex: ix,
		Background: g.Background(),
		Anomalies:  make(map[int]anomaly.Report),
		Placements: make(map[int]inject.Placement),
	}
	opts := inject.Options{MinWidth: cfg.MinWindow, MaxWidth: cfg.MaxWindow, ContextWidths: true}
	var verify, place time.Duration
	for size := cfg.MinSize; size <= cfg.MaxSize; size++ {
		m, err := g.Spec().CanonicalMFS(size)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		report, err := anomaly.MustBeMFS(ix, m, cfg.RareCutoff)
		verify += time.Since(start)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		p, err := inject.Inject(ix, c.Background, report.Sequence, opts)
		place += time.Since(start)
		if err != nil {
			return nil, err
		}
		c.Anomalies[size], c.Placements[size] = report, p
	}
	v["anomaly.verify_ms"] = ms(verify)
	v["inject.ms"] = ms(place)
	return c, nil
}

// tracedRun is the traced grid's timings.
type tracedRun struct {
	maps         map[string]*eval.Map
	train, cells map[string]time.Duration // summed per family
	critical     time.Duration            // the longest row: training plus its cells
	wall         time.Duration
}

func (t tracedRun) busy() time.Duration {
	var b time.Duration
	for _, name := range gridFamilies {
		b += t.train[name] + t.cells[name]
	}
	return b
}

// tracedGrid composes the four maps like eval.BuildMapCorpus: maps one
// after another on one scheduler of j workers, one goroutine per row, a
// row's training then its cells in order on the scheduler.
func tracedGrid(c *core.Corpus, j int) (tracedRun, error) {
	sched := eval.NewScheduler(j)
	out := tracedRun{
		maps:  make(map[string]*eval.Map),
		train: make(map[string]time.Duration),
		cells: make(map[string]time.Duration),
	}
	sizes := c.Sizes()
	cfg := c.Config
	start := time.Now()
	for _, name := range gridFamilies {
		factory, opts, err := adiv.DetectorFactory(name)
		if err != nil {
			return out, err
		}
		m, err := eval.NewMap(name, sizes[0], sizes[len(sizes)-1], cfg.MinWindow, cfg.MaxWindow)
		if err != nil {
			return out, err
		}
		type row struct {
			train, cells time.Duration
			cellsOut     []eval.Assessment
			err          error
		}
		rows := make([]row, cfg.MaxWindow-cfg.MinWindow+1)
		var wg sync.WaitGroup
		for window := cfg.MinWindow; window <= cfg.MaxWindow; window++ {
			wg.Add(1)
			go func(window int) {
				defer wg.Done()
				r := &rows[window-cfg.MinWindow]
				det, err := factory(window)
				if err != nil {
					r.err = err
					return
				}
				sched.Run(func() {
					t0 := time.Now()
					r.err = detector.TrainWith(det, c.TrainingDBs())
					r.train = time.Since(t0)
				})
				for _, size := range sizes {
					if r.err != nil {
						return
					}
					sched.Run(func() {
						t0 := time.Now()
						var a eval.Assessment
						a, r.err = eval.Assess(det, c.Placements[size], opts)
						r.cells += time.Since(t0)
						r.cellsOut = append(r.cellsOut, a)
					})
				}
			}(window)
		}
		wg.Wait()
		for _, r := range rows {
			if r.err != nil {
				return out, fmt.Errorf("traced %s grid: %w", name, r.err)
			}
			out.train[name] += r.train
			out.cells[name] += r.cells
			out.critical = max(out.critical, r.train+r.cells)
			for _, a := range r.cellsOut {
				if err := m.Set(a); err != nil {
					return out, err
				}
			}
		}
		out.maps[name] = m
	}
	out.wall = time.Since(start)
	return out, nil
}

// sameMap reports whether two maps agree on every cell's outcome and
// response, bit for bit.
func sameMap(a, b *eval.Map) bool {
	ca, cb := a.Cells(), b.Cells()
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i].AnomalySize != cb[i].AnomalySize || ca[i].Window != cb[i].Window ||
			ca[i].Outcome != cb[i].Outcome || math.Float64bits(ca[i].MaxResponse) != math.Float64bits(cb[i].MaxResponse) {
			return false
		}
	}
	return true
}
