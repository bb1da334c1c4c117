package eval

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adiv/internal/checkpoint"
	"adiv/internal/detector"
	"adiv/internal/inject"
	"adiv/internal/obs"
	"adiv/internal/seq"
)

// Map is a detector's performance map (paper Figures 3–6): for every
// (anomaly size, detector window) cell in the evaluated grid, the outcome of
// deploying the detector on the test stream holding an injected minimal
// foreign sequence of that size.
type Map struct {
	// Detector names the detector the map describes.
	Detector string
	// MinSize/MaxSize span the anomaly-size axis (x-axis in the paper).
	MinSize, MaxSize int
	// MinWindow/MaxWindow span the detector-window axis (y-axis).
	MinWindow, MaxWindow int

	cells map[[2]int]Assessment // key: {anomaly size, window}
}

// NewMap returns an empty map covering the given grid.
func NewMap(name string, minSize, maxSize, minWindow, maxWindow int) (*Map, error) {
	if minSize < 1 || maxSize < minSize || minWindow < 1 || maxWindow < minWindow {
		return nil, fmt.Errorf("eval: invalid map grid sizes [%d,%d] windows [%d,%d]",
			minSize, maxSize, minWindow, maxWindow)
	}
	return &Map{
		Detector:  name,
		MinSize:   minSize,
		MaxSize:   maxSize,
		MinWindow: minWindow,
		MaxWindow: maxWindow,
		cells:     make(map[[2]int]Assessment, (maxSize-minSize+1)*(maxWindow-minWindow+1)),
	}, nil
}

// Set records the assessment for one cell. Assessments outside the map's
// declared [MinSize,MaxSize]×[MinWindow,MaxWindow] grid are rejected: a
// silently accepted stray cell would surface in Cells(), CountOutcome and
// the rendered figures while At() for every in-grid cell still reads
// Undefined.
func (m *Map) Set(a Assessment) error {
	if a.AnomalySize < m.MinSize || a.AnomalySize > m.MaxSize ||
		a.Window < m.MinWindow || a.Window > m.MaxWindow {
		return fmt.Errorf("eval: assessment cell (size %d, window %d) outside map grid sizes [%d,%d] windows [%d,%d]",
			a.AnomalySize, a.Window, m.MinSize, m.MaxSize, m.MinWindow, m.MaxWindow)
	}
	m.cells[[2]int{a.AnomalySize, a.Window}] = a
	return nil
}

// At returns the assessment at the cell, with Outcome Undefined for cells
// never recorded (including everything outside the grid).
func (m *Map) At(size, window int) Assessment {
	if a, ok := m.cells[[2]int{size, window}]; ok {
		return a
	}
	return Assessment{
		Detector:    m.Detector,
		Window:      window,
		AnomalySize: size,
		Outcome:     Undefined,
	}
}

// Outcome is shorthand for At(size, window).Outcome.
func (m *Map) Outcome(size, window int) Outcome { return m.At(size, window).Outcome }

// Cells returns all recorded assessments ordered by (size, window), for
// deterministic rendering and comparison.
func (m *Map) Cells() []Assessment {
	out := make([]Assessment, 0, len(m.cells))
	for _, a := range m.cells {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AnomalySize != out[j].AnomalySize {
			return out[i].AnomalySize < out[j].AnomalySize
		}
		return out[i].Window < out[j].Window
	})
	return out
}

// CountOutcome returns how many recorded cells have the given outcome.
func (m *Map) CountOutcome(o Outcome) int {
	n := 0
	for _, a := range m.cells {
		if a.Outcome == o {
			n++
		}
	}
	return n
}

// DetectionRegion returns the set of (size, window) cells classified
// Capable, ordered by (size, window).
func (m *Map) DetectionRegion() [][2]int {
	var out [][2]int
	for _, a := range m.Cells() {
		if a.Outcome == Capable {
			out = append(out, [2]int{a.AnomalySize, a.Window})
		}
	}
	return out
}

// CoversAtLeast reports whether every cell Capable in other is also Capable
// in m — the paper's "Stide's detection coverage is a subset of the
// Markov-based detector's coverage" relation.
func (m *Map) CoversAtLeast(other *Map) bool {
	for _, cell := range other.DetectionRegion() {
		if m.Outcome(cell[0], cell[1]) != Capable {
			return false
		}
	}
	return true
}

// Factory builds a detector for a window length; eval uses it to construct
// one detector per row of the map.
type Factory func(window int) (detector.Detector, error)

// BuildMap deploys a detector family over the full evaluation grid: for
// every window in [minWindow, maxWindow] a detector is constructed and
// trained once on the training stream, then scored against every placement
// (one per anomaly size). Grid work — row trainings and (window, size) cell
// evaluations — runs on a bounded worker pool (opts.Workers slots, default
// runtime.NumCPU, or a shared opts.Scheduler), so training the neural
// network fourteen times overlaps across rows without the grid ever
// spawning unbounded concurrent work. Cells within a row run sequentially:
// a trained detector's Score may reuse per-detector scratch buffers and is
// not safe for concurrent use (see DESIGN.md).
func BuildMap(name string, factory Factory, train seq.Stream, placements map[int]inject.Placement,
	minWindow, maxWindow int, opts Options) (*Map, error) {
	return BuildMapObserved(name, factory, train, placements, minWindow, maxWindow, opts, nil)
}

// BuildMapObserved is BuildMap with run telemetry recorded into reg (nil
// disables it, reducing to BuildMap). It wraps the training stream in a
// fresh seq.Corpus, so the per-width sequence databases the rows train from
// are built once and shared across the whole grid; callers evaluating
// several detector families over one training stream should construct the
// corpus themselves and call BuildMapCorpus so the sharing spans families
// too.
func BuildMapObserved(name string, factory Factory, train seq.Stream, placements map[int]inject.Placement,
	minWindow, maxWindow int, opts Options, reg *obs.Registry) (*Map, error) {
	tc := seq.NewCorpus(train)
	tc.Instrument(reg)
	return BuildMapCorpus(name, factory, tc, placements, minWindow, maxWindow, opts, reg)
}

// BuildMapCorpus is the corpus-sharing grid builder behind BuildMap and
// BuildMapObserved: all rows fetch their training databases from tc
// (detectors implementing detector.CorpusTrainer reuse a width's database
// instead of rebuilding it; others fall back to Train on the corpus's
// stream). Each detector is wrapped with detector.Observed (per-window
// training durations, scoring throughput, response distribution), every
// grid cell records its evaluation duration in the cell/<name> sketch, and
// cell-completion progress events carry a running cells/sec rate — the
// visibility a multi-minute grid run otherwise lacks. Row failures are
// aggregated: a multi-row failure reports every failing window, not just
// the first.
func BuildMapCorpus(name string, factory Factory, tc *seq.Corpus, placements map[int]inject.Placement,
	minWindow, maxWindow int, opts Options, reg *obs.Registry) (*Map, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if tc == nil {
		return nil, fmt.Errorf("eval: nil training corpus")
	}
	if len(placements) == 0 {
		return nil, fmt.Errorf("eval: no placements to evaluate")
	}
	minSize, maxSize, first := 0, 0, true
	for size := range placements {
		if size < 1 {
			// A degenerate key would silently fall outside the row loop
			// (and, before the first-iteration flag below, corrupt the
			// grid bounds); fail loudly instead.
			return nil, fmt.Errorf("eval: non-positive anomaly size %d in placements", size)
		}
		if first || size < minSize {
			minSize = size
		}
		if first || size > maxSize {
			maxSize = size
		}
		first = false
	}
	m, err := NewMap(name, minSize, maxSize, minWindow, maxWindow)
	if err != nil {
		return nil, err
	}

	ckKey := opts.CheckpointKey
	if ckKey == "" {
		ckKey = name
	}
	// Shard partition: a sharded worker owns only the cells ShardOf hashes
	// to it; everything else is skipped outright, so N workers cover the
	// grid exactly once between them. The unsharded run owns every cell.
	inShard := func(window, size int) bool {
		if opts.ShardCount == 0 {
			return true
		}
		return checkpoint.ShardOf(ckKey, window, size, opts.ShardCount) == opts.ShardIndex-1
	}

	rows := maxWindow - minWindow + 1
	totalCells := 0
	for window := minWindow; window <= maxWindow; window++ {
		for size := range placements {
			if inShard(window, size) {
				totalCells++
			}
		}
	}
	startFields := obs.Fields{
		"detector": name,
		"windows":  fmt.Sprintf("%d-%d", minWindow, maxWindow),
		"sizes":    fmt.Sprintf("%d-%d", minSize, maxSize),
		"cells":    totalCells,
	}
	if opts.ShardCount > 0 {
		startFields["shard"] = fmt.Sprintf("%d/%d", opts.ShardIndex, opts.ShardCount)
	}
	reg.Event("map.start", startFields)
	prog := opts.Progress
	prog.StartMap(name, rows, totalCells)
	tr := reg.Tracer()
	mapSpan := reg.SpanTraced("map/"+name, "map")
	mapSpan.SetAttr("detector", name)
	cellSketch := reg.Sketch("cell/" + name)
	cellCounter := reg.Counter("eval/cells/" + name)
	retryCounter := reg.Counter("ckpt/cells_retried")
	var done atomic.Int64

	sched := opts.Scheduler
	if sched == nil {
		sched = NewScheduler(opts.Workers)
	}
	ck := opts.Checkpoint

	type rowResult struct {
		assessments []Assessment
		err         error
	}
	results := make([]rowResult, maxWindow-minWindow+1)
	var wg sync.WaitGroup
	for window := minWindow; window <= maxWindow; window++ {
		wg.Add(1)
		// One coordinator goroutine per row. The goroutines themselves are
		// nearly free — all real work (training, cell evaluation) happens
		// inside sched.Run, so at most sched.Workers() grid tasks execute at
		// any moment, across rows and across any other maps sharing the
		// scheduler. Cells stay sequential within their row: each row's
		// trained detector may reuse scoring scratch and must not score two
		// streams at once.
		go func(window int) {
			defer wg.Done()
			prog.RowStarted(name, window)
			defer prog.RowFinished(name, window)
			res := &results[window-minWindow]

			// Consult the journal first: cells evaluated before an
			// interruption replay instead of recomputing, and a row whose
			// every cell is journaled never constructs or trains its
			// detector — on resume the expensive rows (fourteen neural-net
			// trainings at paper scale) cost nothing already paid for.
			type rowCell struct {
				size   int
				rec    checkpoint.CellRecord
				replay bool
			}
			cells := make([]rowCell, 0, maxSize-minSize+1)
			live := 0
			for size := minSize; size <= maxSize; size++ {
				if _, ok := placements[size]; !ok {
					continue
				}
				if !inShard(window, size) {
					continue
				}
				rec, ok := ck.Lookup(ckKey, window, size)
				cells = append(cells, rowCell{size: size, rec: rec, replay: ok})
				if !ok {
					live++
				}
			}

			var det detector.Detector
			if live > 0 {
				var err error
				det, err = factory(window)
				if err != nil {
					res.err = fmt.Errorf("eval: constructing %s(DW=%d): %w", name, window, err)
					return
				}
				det = detector.Observed(det, reg)
				err = runTaskLane(sched, func(lane int) error {
					// One lane-stamped trace span per row training: the
					// timeline's worker tracks show exactly which rows
					// serialized behind the expensive trainings. The name is
					// formatted only when a tracer is live, so untraced runs
					// skip the Sprintf along with the span.
					var tsp *obs.TraceSpan
					if tr != nil {
						tsp = tr.Start(fmt.Sprintf("train/%s/dw%02d", name, window), "train")
						tsp.SetLane(lane)
						tsp.SetAttr("map", ckKey)
						tsp.SetAttr("detector", name)
						tsp.SetAttrInt("window", window)
					}
					defer tsp.End()
					return detector.TrainWith(det, tc)
				})
				if err != nil {
					res.err = fmt.Errorf("eval: training %s(DW=%d): %w", name, window, err)
					return
				}
			}
			for _, c := range cells {
				var (
					a      Assessment
					cellMs float64
				)
				if c.replay {
					// Replayed cells are trace-only (category "replay"):
					// they must stay out of the cell/<name> sketch so the
					// cells-per-busy-second rate keeps measuring real work.
					var rsp *obs.TraceSpan
					if tr != nil {
						rsp = tr.Start("cell/"+name, "replay")
						rsp.SetAttr("map", ckKey)
						rsp.SetAttr("detector", name)
						rsp.SetAttrInt("window", window)
						rsp.SetAttrInt("size", c.size)
					}
					a = recordAssessment(c.rec)
					rsp.End()
					prog.CellReplayed(name)
				} else {
					placement := placements[c.size]
					attempt := 0
					for {
						err := runTaskLane(sched, func(lane int) error {
							cellSpan := reg.SpanTraced("cell/"+name, "cell")
							cellSpan.SetLane(lane)
							cellSpan.SetAttr("map", ckKey)
							cellSpan.SetAttr("detector", name)
							cellSpan.SetAttrInt("window", window)
							cellSpan.SetAttrInt("size", c.size)
							var aerr error
							a, aerr = Assess(det, placement, opts)
							cellMs = float64(cellSpan.End().Nanoseconds()) / 1e6
							return aerr
						})
						if err == nil {
							break
						}
						// An injected scheduler fault simulates the process
						// dying: fatal, never retried. Everything else gets
						// opts.CellRetries more attempts with capped
						// exponential backoff before the row gives up and the
						// joined map error names this exact cell.
						if errors.Is(err, ErrInjectedFault) || attempt >= opts.CellRetries {
							// The cell.fail event carries the recovered
							// panic's stack (when the failure was a panic):
							// the joined map error names the cell, but only
							// the stack says which detector frame blew up.
							failFields := obs.Fields{
								"detector": name,
								"window":   window,
								"size":     c.size,
								"attempts": attempt + 1,
								"error":    err.Error(),
							}
							var pe *panicError
							if errors.As(err, &pe) {
								failFields["stack"] = string(pe.stack)
							}
							reg.Event("cell.fail", failFields)
							res.err = fmt.Errorf("eval: %s cell (window %d, size %d): %w", name, window, c.size, err)
							return
						}
						attempt++
						retryCounter.Inc()
						reg.Event("cell.retry", obs.Fields{
							"detector": name,
							"window":   window,
							"size":     c.size,
							"attempt":  attempt,
							"error":    err.Error(),
						})
						retrySleep(retryDelay(attempt))
					}
					if err := ck.Append(cellRecord(ckKey, a)); err != nil {
						res.err = fmt.Errorf("eval: journaling %s cell (window %d, size %d): %w", name, window, c.size, err)
						return
					}
					prog.CellDone(name)
				}
				cellCounter.Inc()
				n := done.Add(1)
				if reg != nil {
					var rate float64
					if total := cellSketch.Sum(); total > 0 {
						// Cells run concurrently across rows, so the sum of
						// per-cell durations overstates wall time; the rate
						// is per core-busy second, a stable progress signal.
						rate = float64(n) / total
					}
					reg.Event("cell", obs.Fields{
						"detector":        name,
						"window":          window,
						"size":            c.size,
						"outcome":         a.Outcome.String(),
						"ms":              cellMs,
						"replayed":        c.replay,
						"done":            n,
						"total":           totalCells,
						"cellsPerBusySec": rate,
					})
				}
				res.assessments = append(res.assessments, a)
			}
		}(window)
	}
	wg.Wait()
	// The grid is over (successfully or not) once every row returns; /runz
	// flips the map to done here, before result assembly.
	prog.FinishMap(name)
	mapMs := float64(mapSpan.End().Nanoseconds()) / 1e6
	var errs []error
	for _, res := range results {
		if res.err != nil {
			errs = append(errs, res.err)
		}
	}
	if len(errs) > 0 {
		// Report every failing window, not just the lowest-numbered row.
		return nil, errors.Join(errs...)
	}
	for _, res := range results {
		for _, a := range res.assessments {
			if err := m.Set(a); err != nil {
				return nil, err
			}
		}
	}
	reg.Event("map.done", obs.Fields{
		"detector": name,
		"cells":    done.Load(),
		"ms":       mapMs,
	})
	return m, nil
}

// runTask executes fn on the scheduler and converts any panic — fn's own,
// or an injected scheduler fault — into the returned error, preserving a
// panicked error value for errors.Is. Without this a single panicking cell
// (a detector bug on one pathological stream) would kill the whole process
// and with it every other row's completed work; recovered here, the row
// coordinator can retry the cell or report it with its exact coordinates.
func runTask(sched *Scheduler, fn func() error) (err error) {
	return runTaskLane(sched, func(int) error { return fn() })
}

// runTaskLane is runTask for tasks that stamp their worker lane onto trace
// spans.
func runTaskLane(sched *Scheduler, fn func(lane int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// The stack is captured here, inside the recovering frame,
			// because it is gone the moment this deferred call returns —
			// reducing a panic to its value alone would leave the
			// cell-failure report with "panic: index out of range" and no
			// way back to the detector frame that blew up.
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	sched.RunLane(func(lane int) { err = fn(lane) })
	return err
}

// panicError is a recovered grid-task panic: the panicked value plus the
// goroutine stack at recovery time. Unwrap exposes a panicked error value,
// so errors.Is(err, ErrInjectedFault) still recognizes injected scheduler
// faults through the wrapper.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

func (p *panicError) Unwrap() error {
	if err, ok := p.val.(error); ok {
		return err
	}
	return nil
}

// Cell-retry backoff: first retry after cellRetryBase, doubling per
// attempt, capped at cellRetryCap.
const (
	cellRetryBase = 10 * time.Millisecond
	cellRetryCap  = 250 * time.Millisecond
)

// retrySleep is time.Sleep, a seam so the retry tests run instantly.
var retrySleep = time.Sleep

// retryDelay returns the backoff before retry attempt n (1-based).
func retryDelay(attempt int) time.Duration {
	d := cellRetryBase << (attempt - 1)
	if d > cellRetryCap || d <= 0 {
		return cellRetryCap
	}
	return d
}

// cellRecord converts a completed assessment into its journal record under
// the map's checkpoint key. The response crosses as raw IEEE-754 bits: a
// replayed cell must render byte-identically to the original.
func cellRecord(key string, a Assessment) checkpoint.CellRecord {
	return checkpoint.CellRecord{
		Key:      key,
		Detector: a.Detector,
		Window:   a.Window,
		Size:     a.AnomalySize,
		RespBits: math.Float64bits(a.MaxResponse),
		Outcome:  int(a.Outcome),
	}
}

// recordAssessment is cellRecord's inverse, rebuilding the assessment a
// journaled cell recorded.
func recordAssessment(rec checkpoint.CellRecord) Assessment {
	return Assessment{
		Detector:    rec.Detector,
		Window:      rec.Window,
		AnomalySize: rec.Size,
		MaxResponse: math.Float64frombits(rec.RespBits),
		Outcome:     Outcome(rec.Outcome),
	}
}
