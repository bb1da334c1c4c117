package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"adiv/internal/core"
)

// manifest is the part of BENCHMARK.json the benchmark's code must agree
// with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCatalogueMatchesManifest pins every metric name the benchmark can
// print to BENCHMARK.json, with its unit and direction, and the workload
// list to the manifest's.
func TestCatalogueMatchesManifest(t *testing.T) {
	m := readManifest(t)
	var e2e, layers []metricDecl
	for _, d := range m.EndToEnd {
		e2e = append(e2e, metricDecl{d.Name, d.Unit, d.Better})
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range m.PerLayer {
		layers = append(layers, metricDecl{d.Name, d.Unit, d.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the code's\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the code's\n%v", layers, perLayer)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the code defines %d", names, len(workloads))
	}
}

// TestResultPrintsOnlyDeclaredMetrics checks the verdict line carries
// exactly the declared metrics: an undeclared or missing name is refused.
func TestResultPrintsOnlyDeclaredMetrics(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		declared[d.Name] = true
	}
	tl := &tally{attempted: 1}
	values := map[string]float64{}
	for _, d := range endToEnd {
		values[d.Name] = 1
	}
	res, err := buildResult(endToEnd, values, tl)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	var printed result
	if err := json.Unmarshal(buf.Bytes(), &printed); err != nil {
		t.Fatal(err)
	}
	for name := range printed.Metrics {
		if !declared[name] {
			t.Errorf("printed metric %s is not declared", name)
		}
	}
	if len(printed.Metrics) != len(endToEnd) {
		t.Errorf("printed %d metrics, want %d", len(printed.Metrics), len(endToEnd))
	}

	values["undeclared_metric"] = 1
	if _, err := buildResult(endToEnd, values, tl); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	delete(values, "undeclared_metric")
	delete(values, "setup_s")
	if _, err := buildResult(endToEnd, values, tl); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := buildResult(perLayer, zeroLayers(), tl); err != nil {
		t.Errorf("zeroLayers does not cover the per-layer catalogue: %v", err)
	}
}

// TestServeInputsDeterministic requires every serve workload's streams,
// wire encodings and injection positions to be a function of the seed.
func TestServeInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		if w.grid {
			continue
		}
		a, err := genServeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genServeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.streams, b.streams) || !reflect.DeepEqual(a.injectAt, b.injectAt) ||
			!reflect.DeepEqual(a.frames, b.frames) || !reflect.DeepEqual(a.lines, b.lines) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		c, err := genServeInputs(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.streams, c.streams) {
			t.Errorf("%s: seeds 7 and 8 generated the same streams", w.name)
		}
		for i, s := range a.streams {
			if len(s) != w.streamLen {
				t.Errorf("%s: stream %d has %d events, want %d", w.name, i, len(s), w.streamLen)
			}
		}
	}
}

// TestGridInputsDeterministic requires the grid corpus to be a function of
// the seed.
func TestGridInputsDeterministic(t *testing.T) {
	a, err := core.BuildCorpus(gridConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BuildCorpus(gridConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.BuildCorpus(gridConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Error("seed 7 built different grid corpora twice")
	}
	if a.Hash() == c.Hash() {
		t.Error("seeds 7 and 8 built the same grid corpus")
	}
}

// TestDecompositionSumsToRoundTrip checks that the layers of a batch plus
// its residual account for exactly the measured round trip, including when
// the replayed layers overestimate it and the residual goes negative.
func TestDecompositionSumsToRoundTrip(t *testing.T) {
	cases := [][5]float64{
		{120, 0.7, 8.2, 19.5, 0.4},
		{80.25, 2.5, 60, 30, 1.5}, // residual negative
		{5000, 150, 1.5, 92, 20},
	}
	for _, c := range cases {
		b := decompose(c[0], c[1], c[2], c[3], c[4])
		if total := b.decode + b.queue + b.score + b.encode + b.residual; math.Abs(total-c[0]) > 1e-9*c[0] {
			t.Errorf("decompose%v: layers plus residual = %v, want the round trip %v", c, total, c[0])
		}
		if b.decode != c[1] || b.queue != c[2] || b.score != c[3] || b.encode != c[4] {
			t.Errorf("decompose%v changed a layer: %+v", c, b)
		}
	}
}

// TestMatchOps checks that client operations pair with the server batches
// they carried, per tenant in order, and that disagreeing logs are caught.
func TestMatchOps(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	server := map[string][]serverRec{
		"a": {{tenant: "a", start: at(10), end: at(20), n: 4}, {tenant: "a", start: at(30), end: at(35), n: 4}},
		"b": {{tenant: "b", start: at(12), end: at(18), n: 2}, {tenant: "b", start: at(19), end: at(25), n: 2}},
	}
	ops := []clientRec{
		{tenant: "a", t0: at(0), t1: at(25), batches: 1, measured: false},
		{tenant: "b", t0: at(5), t1: at(30), batches: 2, measured: true},
		{tenant: "a", t0: at(28), t1: at(40), batches: 1, measured: true},
	}
	pairs, ok := matchOps(ops, server)
	if !ok || len(pairs) != 2 {
		t.Fatalf("matchOps = %d pairs, ok %v; want 2 measured pairs", len(pairs), ok)
	}
	if pairs[0].op.tenant != "b" || len(pairs[0].batches) != 2 || pairs[0].scoreMicros() != 12 {
		t.Errorf("tenant b: %+v, score %v µs; want both batches, 12 µs", pairs[0], pairs[0].scoreMicros())
	}
	if pairs[1].batches[0].start != at(30) {
		t.Errorf("tenant a's second operation paired with the batch starting %v", pairs[1].batches[0].start)
	}
	if w := queueWaits(pairs); w[1] != 2 {
		t.Errorf("queue wait of a's second operation = %v µs, want 2", w[1])
	}
	if _, ok := matchOps(ops[:2], server); ok {
		t.Error("a server batch with no client operation went unnoticed")
	}
}

// TestOpenLatency checks the open-loop summary: operations the generator
// sent late are left out of the timed sample, the rest give the quantiles.
func TestOpenLatency(t *testing.T) {
	var samples []sample
	for i := 0; i < 1000; i++ {
		samples = append(samples, sample{lat: float64(i%100) / 100})
	}
	samples = append(samples, sample{lat: 50, late: 49}) // sent late: not timed
	p50, p90, _, _, timed, excluded := openLatency(samples)
	if excluded != 1 || timed != 1000 {
		t.Errorf("timed %d, excluded %d; want 1000 and the one sent late", timed, excluded)
	}
	if math.Abs(p50-0.495) > 1e-9 || p90 < 0.89 || p90 > 0.9 {
		t.Errorf("p50 %v, p90 %v; want 0.495 and ~0.89", p50, p90)
	}
}
