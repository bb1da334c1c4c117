package main

// Remote run inspection: -status-url points diagnose at the introspection
// server another command exposed with -status, and it renders that run's
// /runz progress document and top /metrics counters as one table — the
// operator's one-shot "how far along is the grid" query without curl+jq.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"adiv"
)

// topCounters is how many exposition counters the snapshot table shows.
const topCounters = 5

// statusSnapshot dispatches on the -status-url form: one address renders that
// run's full progress document; a comma-separated list renders the aggregated
// fleet view of a sharded run (one row per worker, summed totals).
func statusSnapshot(w io.Writer, urls string) error {
	var bases []string
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			bases = append(bases, normalizeBase(u))
		}
	}
	switch len(bases) {
	case 0:
		return fmt.Errorf("diagnose: -status-url holds no addresses")
	case 1:
		return statusOne(w, bases[0])
	default:
		return statusFleet(w, bases)
	}
}

// normalizeBase turns a host:port or URL into a scheme-qualified base URL.
func normalizeBase(base string) string {
	base = strings.TrimSuffix(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

// statusFleet aggregates the /runz documents of a sharded run's workers into
// one table: a row per worker (its shard identity, phase, cell progress,
// throughput, ETA), then fleet totals — cells and rates sum, the ETA is the
// slowest worker's. Unreachable workers render as such and surface in the
// returned error after the reachable rows are printed, so one dead worker
// doesn't blind the operator to the rest of the fleet.
func statusFleet(w io.Writer, bases []string) error {
	fmt.Fprintf(w, "fleet status from %d workers\n\n", len(bases))
	fmt.Fprintf(w, "%-28s %-8s %-10s %14s %12s %10s\n", "worker", "shard", "phase", "cells", "rate", "ETA")
	var errs []error
	var done, total int
	var rate, maxETA float64
	etaUnknown := false
	for _, base := range bases {
		var status adiv.RunStatus
		body, err := fetch(base + "/runz")
		if err == nil {
			if jerr := json.Unmarshal(body, &status); jerr != nil {
				err = fmt.Errorf("diagnose: %s/runz is not a run status document: %w", base, jerr)
			}
		}
		if err != nil {
			fmt.Fprintf(w, "%-28s %s\n", base, "unreachable")
			errs = append(errs, err)
			continue
		}
		shard := status.Shard
		if shard == "" {
			shard = "-"
		}
		fmt.Fprintf(w, "%-28s %-8s %-10s %7d/%-6d %9.2f/s %10s\n",
			base, shard, status.Phase, status.CellsDone, status.CellsTotal,
			status.CellsPerSec, formatETA(status.ETASeconds))
		done += status.CellsDone
		total += status.CellsTotal
		rate += status.CellsPerSec
		if status.ETASeconds < 0 {
			etaUnknown = true
		} else if status.ETASeconds > maxETA {
			maxETA = status.ETASeconds
		}
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	eta := maxETA
	if etaUnknown {
		eta = -1
	}
	fmt.Fprintf(w, "\nfleet: %d/%d cells (%.1f%%)   rate: %.2f cells/s   ETA: %s\n",
		done, total, pct, rate, formatETA(eta))
	return errors.Join(errs...)
}

// statusOne fetches base's /runz and /metrics and pretty-prints them.
func statusOne(w io.Writer, base string) error {
	var status adiv.RunStatus
	body, err := fetch(base + "/runz")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, &status); err != nil {
		return fmt.Errorf("diagnose: %s/runz is not a run status document: %w", base, err)
	}
	expo, err := fetch(base + "/metrics")
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "run status from %s (schema %s)\n\n", base, status.Schema)
	if len(status.Run) > 0 {
		keys := make([]string, 0, len(status.Run))
		for k := range status.Run {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%v", k, status.Run[k]))
		}
		fmt.Fprintf(w, "run: %s\n", strings.Join(parts, " "))
	}
	pct := 0.0
	if status.CellsTotal > 0 {
		pct = 100 * float64(status.CellsDone) / float64(status.CellsTotal)
	}
	if status.Shard != "" {
		fmt.Fprintf(w, "shard: %s of a distributed run\n", status.Shard)
	}
	fmt.Fprintf(w, "phase: %-12s uptime: %s\n", status.Phase, (time.Duration(status.UptimeMs) * time.Millisecond).Round(time.Second))
	fmt.Fprintf(w, "cells: %d/%d (%.1f%%)   rate: %.2f cells/s   ETA: %s\n\n",
		status.CellsDone, status.CellsTotal, pct, status.CellsPerSec, formatETA(status.ETASeconds))

	if len(status.Maps) > 0 {
		fmt.Fprintf(w, "%-20s %10s %10s %-14s %s\n", "map", "rows", "cells", "active", "state")
		for _, m := range status.Maps {
			state := "running"
			if m.Done {
				state = "done"
			} else if m.RowsStarted == 0 {
				state = "pending"
			}
			active := "-"
			if len(m.ActiveWindows) > 0 {
				active = fmt.Sprint(m.ActiveWindows)
			}
			fmt.Fprintf(w, "%-20s %6d/%-3d %6d/%-3d %-14s %s\n",
				m.Name, m.RowsDone, m.RowsTotal, m.CellsDone, m.CellsTotal, active, state)
		}
		fmt.Fprintln(w)
	}

	counters := parseExpoValues(expo)
	if len(counters) > 0 {
		fmt.Fprintf(w, "top counters (/metrics):\n")
		for i, c := range counters {
			if i == topCounters {
				break
			}
			fmt.Fprintf(w, "  %-40s %s\n", c.name, strconv.FormatFloat(c.value, 'g', -1, 64))
		}
	}
	return nil
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("diagnose: fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("diagnose: reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("diagnose: %s returned %s", url, resp.Status)
	}
	return body, nil
}

func formatETA(s float64) string {
	switch {
	case s < 0:
		return "unknown"
	case s == 0:
		return "complete"
	default:
		return (time.Duration(s * float64(time.Second))).Round(time.Second).String()
	}
}

type expoValue struct {
	name  string
	value float64
}

// parseExpoValues extracts single-valued samples (counters, gauges, and
// untyped samples; no labels) from a Prometheus text exposition, sorted by
// value descending then name, so "which counters dominate this run" reads
// off the top. The _sum and _count samples of summary and histogram
// families are dropped: they are parts of a distribution, not counters, and
// a busy latency sketch's observation count would otherwise top the table.
func parseExpoValues(expo []byte) []expoValue {
	var out []expoValue
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(expo)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if family, kind, ok := strings.Cut(rest, " "); ok {
				types[family] = strings.TrimSpace(kind)
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || distributionSample(types, name) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out = append(out, expoValue{name: name, value: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].value != out[j].value {
			return out[i].value > out[j].value
		}
		return out[i].name < out[j].name
	})
	return out
}

// distributionSample reports whether the sample name is the _sum or _count
// series of a family declared as a summary or histogram (their other series
// carry labels and are skipped before this check).
func distributionSample(types map[string]string, name string) bool {
	for _, suffix := range []string{"_sum", "_count"} {
		family, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		if kind := types[family]; kind == "summary" || kind == "histogram" {
			return true
		}
	}
	return false
}
