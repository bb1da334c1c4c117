// Command serveload replays synthetic tenant streams against a running
// serve daemon and reports end-to-end throughput and latency.
//
// Usage:
//
//	serveload [-tcp ADDR | -addr ADDR] [-tenants N] [-events N] [-batch N]
//	          [-rate EVENTS/SEC] [-inject-size N] [-inject-pos P]
//	          [-window N] [-verify-journal FILE]
//	          [-metrics-out FILE] [-progress] [-status ADDR] ...
//
// Each tenant replays a deterministic noisy stream (the same generator the
// experiments use, seeded per tenant) with one canonical minimal-foreign
// sequence injected at a known position, so a journaling daemon must alarm
// there — -verify-journal checks exactly that after the run, per tenant,
// and exits nonzero if any tenant's injection went undetected.
//
// The -tcp transport (the daemon's frame protocol) is preferred for load;
// -addr drives the NDJSON HTTP endpoint instead. Busy rejections are
// retried with backoff and counted — backpressure is part of the protocol,
// not an error. Per-batch round-trip latency lands in a quantile sketch;
// the run prints achieved events/sec with p50/p95/p99.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"adiv/internal/gen"
	"adiv/internal/inject"
	"adiv/internal/obs"
	"adiv/internal/runflags"
	"adiv/internal/seq"
	"adiv/internal/serve"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) (err error) {
	fs := flag.NewFlagSet("serveload", flag.ContinueOnError)
	tcpAddr := fs.String("tcp", "", "serve daemon frame-protocol address (preferred)")
	httpAddr := fs.String("addr", "", "serve daemon HTTP address (host:port) for the NDJSON transport")
	tenants := fs.Int("tenants", 3, "concurrent tenant streams")
	events := fs.Int("events", 10_000, "events per tenant")
	batch := fs.Int("batch", 256, "events per request batch")
	rate := fs.Float64("rate", 0, "aggregate target events/sec across tenants (0: unpaced)")
	injectSize := fs.Int("inject-size", 6, "canonical minimal-foreign-sequence size injected per tenant (0: no injection)")
	injectPos := fs.Int("inject-pos", -1, "injection position in each tenant's stream (-1: midpoint)")
	window := fs.Int("window", 6, "daemon detector window, for the -verify-journal position slack")
	verify := fs.String("verify-journal", "", "after the run, require one journaled alarm per tenant at the injected position in this adiv.alerts/v1 file")
	obsFlags := runflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*tcpAddr == "") == (*httpAddr == "") {
		return errors.New("exactly one of -tcp or -addr is required")
	}
	if *tenants < 1 || *events < 1 || *batch < 1 {
		return errors.New("-tenants, -events, and -batch must be positive")
	}

	obsRun, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obsRun.Close(); err == nil {
			err = cerr
		}
	}()
	obsRun.Announce("run.start", obs.Fields{
		"cmd":     "serveload",
		"tenants": *tenants,
		"events":  *events,
		"batch":   *batch,
		"rate":    *rate,
	})

	g, err := gen.New(gen.DefaultConfig())
	if err != nil {
		return err
	}
	pos := *injectPos
	if pos < 0 {
		pos = *events / 2
	}
	if pos > *events {
		return fmt.Errorf("-inject-pos %d beyond -events %d", pos, *events)
	}
	streams := make([]seq.Stream, *tenants)
	for i := range streams {
		stream := g.Noisy(*events, uint64(i))
		if *injectSize > 0 {
			mfs, err := gen.CanonicalMFS(*injectSize)
			if err != nil {
				return err
			}
			p, err := inject.At(stream, mfs, pos)
			if err != nil {
				return err
			}
			stream = p.Stream
		}
		streams[i] = stream
	}

	// Latency lands in the run's registry when observation is on (served
	// under -status, snapshotted by -metrics-out), in a standalone sketch
	// otherwise.
	latency := obsRun.Metrics.Sketch("load/latency")
	if latency == nil {
		latency = obs.NewSketch()
	}
	perTenantRate := *rate / float64(*tenants)

	var sent, busyRetries atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, *tenants)
	obsRun.Progress().SetPhase("load")
	start := time.Now()
	for i := 0; i < *tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("load-%d", i)
			var c client
			var cerr error
			if *tcpAddr != "" {
				c, cerr = dialFrames(*tcpAddr)
			} else {
				c = &httpClient{base: "http://" + *httpAddr}
			}
			if cerr != nil {
				errs[i] = cerr
				return
			}
			defer c.close()
			errs[i] = drive(c, tenant, streams[i], *batch, perTenantRate, latency, &sent, &busyRetries)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("tenant %d: %w", i, e)
		}
	}

	total := sent.Load()
	eps := float64(total) / elapsed.Seconds()
	fmt.Fprintf(w, "%d tenants x %d events in %v: %.0f events/sec aggregate (%d busy retries)\n",
		*tenants, *events, elapsed.Round(time.Millisecond), eps, busyRetries.Load())
	fmt.Fprintf(w, "batch latency: p50 %s  p95 %s  p99 %s\n",
		durOf(latency.Quantile(0.50)), durOf(latency.Quantile(0.95)), durOf(latency.Quantile(0.99)))
	obsRun.Announce("load.done", obs.Fields{
		"events":       total,
		"eventsPerSec": eps,
		"busyRetries":  busyRetries.Load(),
		"p99Seconds":   latency.Quantile(0.99),
	})

	if *verify != "" {
		if *injectSize == 0 {
			return errors.New("-verify-journal requires -inject-size > 0")
		}
		obsRun.Progress().SetPhase("verify")
		if err := verifyJournal(w, *verify, *tenants, pos, *injectSize, *window); err != nil {
			return err
		}
	}
	return nil
}

func durOf(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond)
}

// client is one tenant's transport: push scores a batch (retrying busy
// rejections internally is the driver's job — push returns errBusy).
type client interface {
	push(tenant string, syms seq.Stream, closeAfter bool) error
	close()
}

var errBusy = errors.New("busy")

// drive replays one tenant's stream in batches, pacing to ratePerTenant
// events/sec (0: unpaced) by expected-elapsed sleep, observing per-batch
// round-trip latency.
func drive(c client, tenant string, stream seq.Stream, batch int, ratePerTenant float64, latency *obs.Sketch, sent, busyRetries *atomic.Int64) error {
	backoff := time.Millisecond
	pushed := 0
	start := time.Now()
	for off := 0; off < len(stream); {
		end := off + batch
		if end > len(stream) {
			end = len(stream)
		}
		closeAfter := end == len(stream)
		t0 := time.Now()
		err := c.push(tenant, stream[off:end], closeAfter)
		if errors.Is(err, errBusy) {
			busyRetries.Add(1)
			time.Sleep(backoff)
			if backoff < 64*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		if err != nil {
			return err
		}
		latency.Observe(time.Since(t0).Seconds())
		backoff = time.Millisecond
		n := end - off
		off = end
		pushed += n
		sent.Add(int64(n))
		if ratePerTenant > 0 {
			expected := time.Duration(float64(pushed) / ratePerTenant * float64(time.Second))
			if ahead := expected - time.Since(start); ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	return nil
}

// frameClient drives the daemon's TCP frame protocol synchronously: one
// quiet events frame, one ack.
type frameClient struct {
	conn net.Conn
	r    *bufio.Reader
	buf  []byte
}

func dialFrames(addr string) (client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &frameClient{conn: conn, r: bufio.NewReaderSize(conn, 64*1024)}, nil
}

func (c *frameClient) push(tenant string, syms seq.Stream, closeAfter bool) error {
	typ := uint8(serve.FrameEventsQuiet)
	if closeAfter {
		// Close scores the final batch and retires the tenant in one frame.
		typ = serve.FrameClose
	}
	body := make([]byte, len(syms))
	for i, s := range syms {
		body[i] = byte(s)
	}
	c.buf = serve.AppendFrame(c.buf[:0], serve.Frame{Type: typ, Tenant: tenant, Body: body})
	if _, err := c.conn.Write(c.buf); err != nil {
		return err
	}
	f, err := serve.ReadFrame(c.r, 0)
	if err != nil {
		return err
	}
	switch f.Type {
	case serve.FrameScores, serve.FrameClosed:
		accepted, _, _, err := serve.ParseScoresBody(f.Body)
		if err != nil {
			return err
		}
		if accepted != len(syms) {
			return fmt.Errorf("ack for %d of %d events", accepted, len(syms))
		}
		return nil
	case serve.FrameBusy:
		return errBusy
	case serve.FrameError:
		return fmt.Errorf("server error: %s", f.Body)
	default:
		return fmt.Errorf("unexpected frame type %d", f.Type)
	}
}

func (c *frameClient) close() { c.conn.Close() }

// httpClient drives the NDJSON endpoint, one request line per batch.
type httpClient struct {
	base string
	hc   http.Client
}

func (c *httpClient) push(tenant string, syms seq.Stream, closeAfter bool) error {
	req := serve.PushRequest{Tenant: tenant, Symbols: make([]int, len(syms)), Quiet: true, Close: closeAfter}
	for i, s := range syms {
		req.Symbols[i] = int(s)
	}
	line, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+"/v1/push", "application/x-ndjson", bytes.NewReader(append(line, '\n')))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return errBusy
	default:
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ack serve.PushResponse
	if err := json.Unmarshal(bytes.TrimSpace(body), &ack); err != nil {
		return fmt.Errorf("bad response %q: %w", body, err)
	}
	if ack.Error != "" {
		return errors.New(ack.Error)
	}
	if ack.Accepted != len(syms) {
		return fmt.Errorf("ack for %d of %d events", ack.Accepted, len(syms))
	}
	return nil
}

func (c *httpClient) close() {}

// verifyJournal checks the daemon's alert journal for the injected
// anomalies: every tenant must have at least one detection positioned
// within the injection's detection span (the anomaly plus one window of
// slack on each side — a window that overlaps the foreign content starts
// up to window-1 elements before it). A raised record is a detection unless
// the tenant's journal later resolves that position as suppressed (a veto
// daemon's uncorroborated candidate); escalated records resolve a raised
// candidate the other way and add no detection of their own.
func verifyJournal(w io.Writer, path string, tenants, pos, size, window int) error {
	recs, err := obs.ReadAlertsFile(path)
	if err != nil {
		return err
	}
	lo, hi := pos-window, pos+size+window
	missing := 0
	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("load-%d", i)
		// Raised candidates in the span not (yet) suppressed, by position.
		open := map[int]int{}
		for _, rec := range recs {
			if rec.Tenant != tenant || rec.Position < lo || rec.Position > hi {
				continue
			}
			switch rec.Disposition {
			case obs.DispositionRaised:
				open[rec.Position]++
			case obs.DispositionSuppressed:
				if open[rec.Position] > 0 {
					open[rec.Position]--
				}
			}
		}
		found := 0
		for _, n := range open {
			found += n
		}
		if found == 0 {
			fmt.Fprintf(w, "verify: tenant %s: NO alarm in [%d,%d]\n", tenant, lo, hi)
			missing++
		} else {
			fmt.Fprintf(w, "verify: tenant %s: %d alarms in [%d,%d]\n", tenant, found, lo, hi)
		}
	}
	if missing > 0 {
		return fmt.Errorf("verify: %d of %d tenants missed the injected anomaly", missing, tenants)
	}
	fmt.Fprintf(w, "verify: all %d tenants alarmed on the injected anomaly\n", tenants)
	return nil
}
