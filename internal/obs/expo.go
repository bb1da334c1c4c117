package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format this package renders (version 0.0.4, the format every Prometheus
// scraper accepts).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteProm renders the registry's current state in Prometheus text
// exposition format v0.0.4: counters and gauges as single samples, and
// quantile sketches — span durations in seconds among them — as summaries
// with quantile-labeled p50/p90/p99 samples plus _sum and _count. Metric
// names are the registry names prefixed with "adiv_" and sanitized to the
// Prometheus grammar ("cell/stide" becomes "adiv_cell_stide"); within each
// family names render in sorted order, so the exposition is byte-stable for
// a given registry state and clock. A nil registry renders only the uptime
// gauge of an empty snapshot.
func (r *Registry) WriteProm(w io.Writer) error {
	return WriteProm(w, r.Snapshot())
}

// WriteProm renders one snapshot in Prometheus text exposition format; see
// (*Registry).WriteProm.
func WriteProm(w io.Writer, s Snapshot) error {
	var buf bytes.Buffer
	buf.WriteString("# TYPE adiv_uptime_seconds gauge\n")
	fmt.Fprintf(&buf, "adiv_uptime_seconds %s\n", promFloat(s.UptimeMs/1e3))

	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		fmt.Fprintf(&buf, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(&buf, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Sketches) {
		sk := s.Sketches[name]
		pn := promName(name)
		fmt.Fprintf(&buf, "# TYPE %s summary\n", pn)
		fmt.Fprintf(&buf, "%s{quantile=\"0.5\"} %s\n", pn, promFloat(sk.P50))
		fmt.Fprintf(&buf, "%s{quantile=\"0.9\"} %s\n", pn, promFloat(sk.P90))
		fmt.Fprintf(&buf, "%s{quantile=\"0.99\"} %s\n", pn, promFloat(sk.P99))
		fmt.Fprintf(&buf, "%s_sum %s\n", pn, promFloat(sk.Sum))
		fmt.Fprintf(&buf, "%s_count %d\n", pn, sk.Count)
	}
	_, err := w.Write(buf.Bytes())
	if err != nil {
		return fmt.Errorf("obs: writing exposition: %w", err)
	}
	return nil
}

// promName maps a registry metric name onto the Prometheus name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*, prefixing the repository namespace.
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name) + 5)
	sb.WriteString("adiv_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promFloat renders a float sample value in the shortest exact form.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
