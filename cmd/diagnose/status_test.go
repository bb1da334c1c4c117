package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// cannedStatusServer serves a fixed mid-run /runz document and a small
// /metrics exposition, standing in for a perfmap run's -status server.
func cannedStatusServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/runz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{
  "schema": "adiv.runz/v1",
  "run": {"cmd": "perfmap", "quick": true},
  "phase": "grid",
  "startedAt": "2026-08-06T12:00:00Z",
  "uptimeMs": 90000,
  "cellsDone": 56,
  "cellsTotal": 112,
  "cellsPerSec": 0.62,
  "etaSeconds": 90.3,
  "maps": [
    {"name": "stide", "rowsTotal": 14, "rowsStarted": 14, "rowsDone": 14,
     "cellsDone": 112, "cellsTotal": 112, "done": true},
    {"name": "markov", "rowsTotal": 14, "rowsStarted": 6, "rowsDone": 2,
     "activeWindows": [4, 5, 6, 7], "cellsDone": 23, "cellsTotal": 112, "done": false}
  ]
}`))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`# HELP adiv_eval_cells_stide cumulative count of eval/cells/stide
# TYPE adiv_eval_cells_stide counter
adiv_eval_cells_stide 112
adiv_eval_cells_markov 23
adiv_sched_tasks_started 141
adiv_sched_tasks_done 137
adiv_online_threshold 0.95
adiv_corpus_build 1
adiv_responses_stide_bucket{le="0.5"} 9
# TYPE adiv_online_push_latency_stide summary
adiv_online_push_latency_stide{quantile="0.5"} 3e-07
adiv_online_push_latency_stide_sum 0.0015
adiv_online_push_latency_stide_count 5000
`))
	})
	return httptest.NewServer(mux)
}

func TestStatusSnapshot(t *testing.T) {
	ts := cannedStatusServer(t)
	defer ts.Close()

	var sb strings.Builder
	if err := run(&sb, []string{"-status-url", ts.URL}); err != nil {
		t.Fatalf("run -status-url: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"schema adiv.runz/v1",
		"cmd=perfmap",
		"phase: grid",
		"cells: 56/112 (50.0%)",
		"rate: 0.62 cells/s",
		"ETA: 1m30s",
		"stide",
		"markov",
		"[4 5 6 7]",
		"done",
		"running",
		"adiv_sched_tasks_started",
		"141",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
	// Top-5 cut: 6 plain samples were served, so the smallest must be
	// dropped, and the labeled histogram bucket line never parsed.
	if strings.Contains(out, "adiv_online_threshold") {
		t.Errorf("smallest counter should fall outside the top %d:\n%s", topCounters, out)
	}
	if strings.Contains(out, "bucket") {
		t.Errorf("labeled sample leaked into the counter table:\n%s", out)
	}
	// A summary's _sum and _count are parts of a distribution: the 5000
	// observation count must not pose as the top counter.
	if strings.Contains(out, "push_latency") {
		t.Errorf("summary _sum/_count sample listed as a counter:\n%s", out)
	}
}

func TestStatusSnapshotHostPortForm(t *testing.T) {
	ts := cannedStatusServer(t)
	defer ts.Close()
	var sb strings.Builder
	hostport := strings.TrimPrefix(ts.URL, "http://")
	if err := run(&sb, []string{"-status-url", hostport + "/"}); err != nil {
		t.Fatalf("run -status-url %s/: %v", hostport, err)
	}
	if !strings.Contains(sb.String(), "phase: grid") {
		t.Errorf("host:port form failed:\n%s", sb.String())
	}
}

func TestStatusSnapshotErrors(t *testing.T) {
	notFound := httptest.NewServer(http.NotFoundHandler())
	defer notFound.Close()
	var sb strings.Builder
	if err := run(&sb, []string{"-status-url", notFound.URL}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("non-200 /runz not reported: %v", err)
	}

	notJSON := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json"))
	}))
	defer notJSON.Close()
	if err := run(&sb, []string{"-status-url", notJSON.URL}); err == nil ||
		!strings.Contains(err.Error(), "not a run status document") {
		t.Errorf("malformed /runz not reported: %v", err)
	}

	unreachable := notFound.URL // server already closed below
	notFound.Close()
	if err := run(&sb, []string{"-status-url", unreachable}); err == nil {
		t.Error("unreachable server not reported")
	}
}

// shardStatusServer serves a /runz document for one worker of a sharded run.
func shardStatusServer(t *testing.T, shard string, done, total int, rate, eta float64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/runz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"schema":"adiv.runz/v1","phase":"grid","shard":%q,`+
			`"startedAt":"2026-08-06T12:00:00Z","uptimeMs":1000,`+
			`"cellsDone":%d,"cellsTotal":%d,"cellsPerSec":%g,"etaSeconds":%g,"maps":[]}`,
			shard, done, total, rate, eta)
	})
	return httptest.NewServer(mux)
}

// TestStatusFleet aggregates three shard workers: one row per worker with its
// shard identity, summed cells and rates, and the slowest worker's ETA.
func TestStatusFleet(t *testing.T) {
	a := shardStatusServer(t, "1/3", 10, 40, 2.0, 15)
	b := shardStatusServer(t, "2/3", 20, 40, 1.0, 20)
	c := shardStatusServer(t, "3/3", 40, 40, 0.5, 0)
	defer a.Close()
	defer b.Close()
	defer c.Close()

	var sb strings.Builder
	urls := a.URL + "," + b.URL + "," + c.URL
	if err := run(&sb, []string{"-status-url", urls}); err != nil {
		t.Fatalf("run -status-url fleet: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"fleet status from 3 workers",
		"1/3", "2/3", "3/3",
		"10/40", "20/40", "40/40",
		"fleet: 70/120 cells (58.3%)",
		"rate: 3.50 cells/s",
		"ETA: 20s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet view missing %q:\n%s", want, out)
		}
	}
}

// TestStatusFleetPartialOutage keeps rendering reachable workers when one is
// down, and still reports the failure through the returned error.
func TestStatusFleetPartialOutage(t *testing.T) {
	alive := shardStatusServer(t, "1/2", 5, 10, 1.0, 5)
	defer alive.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	var sb strings.Builder
	err := run(&sb, []string{"-status-url", alive.URL + "," + deadURL})
	if err == nil {
		t.Fatal("dead worker not reported in the error")
	}
	out := sb.String()
	if !strings.Contains(out, "1/2") || !strings.Contains(out, "5/10") {
		t.Errorf("reachable worker not rendered despite outage:\n%s", out)
	}
	if !strings.Contains(out, "unreachable") {
		t.Errorf("dead worker row missing:\n%s", out)
	}
	if !strings.Contains(out, "fleet: 5/10 cells") {
		t.Errorf("fleet totals missing:\n%s", out)
	}
}
