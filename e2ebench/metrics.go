package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"syscall"
)

// metricDecl is one metric of the benchmark's catalogue. The catalogue is
// mirrored in BENCHMARK.json; TestCatalogueMatchesManifest keeps the two
// equal.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists the metrics an untraced run reports, on every workload.
// Their meaning per workload is documented in README.md.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"throughput_eps", "events/s", "higher"},
	{"throughput_1p_eps", "events/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// gridFamilies are the four paper detectors, in figure order.
var gridFamilies = []string{"lb", "markov", "stide", "nn"}

// perLayer lists the metrics a traced run reports, on every workload. A
// layer that a workload's path never enters reports 0.
var perLayer = func() []metricDecl {
	m := []metricDecl{
		{"protocol.decode_ns_per_event", "ns", "lower"},
		{"protocol.encode_ns_per_batch", "ns", "lower"},
		{"protocol.bytes_in_per_event", "bytes", "lower"},
		{"protocol.bytes_out_per_event", "bytes", "lower"},
		{"router.queue_wait_p50_us", "us", "lower"},
		{"router.queue_wait_p99_us", "us", "lower"},
		{"router.busy_ratio", "ratio", "lower"},
		{"router.shard_skew", "ratio", "lower"},
		{"router.shard_occupancy", "ratio", "higher"},
		{"scorer.ns_per_event", "ns", "lower"},
		{"detector.ns_per_window", "ns", "lower"},
		{"online.overhead_ns_per_event", "ns", "lower"},
		{"tenant.new_count", "count", "lower"},
		{"tenant.new_ms_p50", "ms", "lower"},
		{"tenant.pool_reuse_ratio", "ratio", "higher"},
		{"transport.residual_us_per_batch", "us", "lower"},
		{"loadgen.late_p99_ms", "ms", "lower"},
		{"gen.training_ms", "ms", "lower"},
		{"seq.index_ms", "ms", "lower"},
		{"anomaly.verify_ms", "ms", "lower"},
		{"inject.ms", "ms", "lower"},
		{"seq.db_build_ms", "ms", "lower"},
		{"seq.db_hits", "count", "higher"},
		{"seq.db_misses", "count", "lower"},
	}
	for _, f := range gridFamilies {
		m = append(m, metricDecl{"detector.train_ms." + f, "ms", "lower"})
	}
	for _, f := range gridFamilies {
		m = append(m, metricDecl{"eval.cell_ms." + f, "ms", "lower"})
	}
	return append(m,
		metricDecl{"eval.occupancy", "ratio", "higher"},
		metricDecl{"eval.critical_path_ms", "ms", "lower"},
		metricDecl{"grid.residual_ms", "ms", "lower"},
		metricDecl{"trace.overhead_ratio", "ratio", "lower"},
	)
}()

// metricValue is one reported metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line: the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts operations and failed checks across a run. Every failed
// check is one failed operation and makes the run incorrect. Safe for
// concurrent use: shard workers report through it from done callbacks.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	problems          []string
}

// add counts n attempted operations.
func (t *tally) add(n int64) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// check records a failed operation when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	if !ok {
		t.fail(format, args...)
	}
}

// buildResult attaches units to values and refuses any name outside the
// catalogue or any catalogue name left unreported.
func buildResult(decls []metricDecl, values map[string]float64, t *tally) (result, error) {
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(decls)),
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operations attempted")
	}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(decls) {
		for name := range values {
			if _, ok := res.Metrics[name]; !ok {
				return result{}, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return res, nil
}

// writeSummary prints every metric by name with its unit, in catalogue
// order, followed by the failure ratio.
func writeSummary(w io.Writer, decls []metricDecl, res result) {
	for _, d := range decls {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	ratio := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(w, "%-34s %16.6g ratio (%d failed of %d attempted)\n", "ops_failed_ratio", ratio, res.Failed, res.Attempted)
}

func writeResult(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqm is the interquartile mean: the mean of the middle half of xs (all of
// xs when there are fewer than four). It averages over the host's fast and
// slow stretches, where a median would jump between them, and ignores the
// stalls at either end.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 4 {
		s = s[len(s)/4 : len(s)-len(s)/4]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
