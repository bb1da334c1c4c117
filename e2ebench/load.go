package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adiv/internal/serve"
)

// loadMode selects how a phase offers load.
type loadMode int

const (
	// closedLoop: each connection keeps w.depth operations in flight and
	// sends the next only when a reply arrives.
	closedLoop loadMode = iota
	// openLoop: operations are due on a fixed schedule at w.rate, sent
	// when due whatever the replies; each is timed from when it was due.
	openLoop
	// directSubmit: the transport is bypassed and batches go straight to
	// Server.Submit, closed loop, so queue wait can be isolated.
	directSubmit
)

// phase is what one load phase measured.
type phase struct {
	rates    []float64     // closed loop: events/s in each sub-window after warm-up
	wall     time.Duration // start of load to the last reply
	acked    int64         // events acknowledged over the whole phase
	ops      int64         // frames, requests or submissions sent
	busy     int64         // busy rejections
	sessions int64         // tenant sessions started
	samples  []sample      // open loop: one per operation due after warm-up
	recs     []clientRec   // traced phases: every operation, per tenant in order
	shardEv  []int64       // events acknowledged per shard
	bytesIn  int64         // client socket bytes received
	bytesOut int64         // client socket bytes sent
	stats    serve.Stats
}

// sample is one open-loop operation's timing.
type sample struct {
	due  time.Time
	lat  float64 // ms from due to reply
	late float64 // ms from due to send: the generator's own lateness
}

// clientRec is one operation as the load generator saw it.
type clientRec struct {
	tenant   string
	t0, t1   time.Time // t0: sent (closed, direct) or due (open); t1: reply
	batches  int       // server batches the operation carried
	measured bool      // after warm-up
}

// runPhase starts a fresh deployment with the given shard count, offers
// load for dur, stops it and checks the drain invariant and that every
// acknowledged event was scored.
func runPhase(in *serveInputs, shards int, mode loadMode, dur time.Duration, p *probe, tl *tally) (*phase, error) {
	st, err := startStack(in.w, in.seed, shards, in.corpus, p)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the set-up's garbage is collected before load, not during it
	lg := &loadGen{in: in, st: st, tl: tl, record: p != nil, shardEv: make([]atomic.Int64, shards)}
	if in.w.transport == "http" {
		lg.hc = lg.newHTTPClient()
	}
	start := time.Now()
	switch mode {
	case closedLoop:
		err = lg.closed(dur)
	case openLoop:
		err = lg.open(dur)
	default:
		err = lg.direct(dur)
	}
	ph := &lg.ph
	ph.wall = time.Since(start)
	if lg.hc != nil {
		lg.hc.CloseIdleConnections()
	}
	ph.stats = st.stop(tl)
	if err != nil {
		return nil, err
	}
	ph.acked = lg.acked.Load()
	ph.bytesIn, ph.bytesOut = lg.bytesIn.Load(), lg.bytesOut.Load()
	for i := range lg.shardEv {
		ph.shardEv = append(ph.shardEv, lg.shardEv[i].Load())
	}
	tl.add(ph.ops)
	tl.check(ph.stats.Scored == ph.acked, "scored %d events but acknowledged %d", ph.stats.Scored, ph.acked)
	tl.check(ph.stats.Busy == ph.busy, "server counted %d busy rejections, client %d", ph.stats.Busy, ph.busy)
	return ph, nil
}

// loadGen drives one phase. Connection goroutines merge their counts into ph under mu
// when they finish.
type loadGen struct {
	in     *serveInputs
	st     *stack
	tl     *tally
	record bool
	hc     *http.Client // http workloads: shared by both connection goroutines

	acked             atomic.Int64
	nextSession       atomic.Int64
	bytesIn, bytesOut atomic.Int64
	shardEv           []atomic.Int64

	mu sync.Mutex
	ph phase
}

// connStats are one connection goroutine's counts, merged into the phase.
type connStats struct {
	ops, busy, sessions int64
	samples             []sample
	recs                []clientRec
}

func (lg *loadGen) merge(d *connStats) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.ph.ops += d.ops
	lg.ph.busy += d.busy
	lg.ph.sessions += d.sessions
	lg.ph.samples = append(lg.ph.samples, d.samples...)
	lg.ph.recs = append(lg.ph.recs, d.recs...)
}

// ack books n acknowledged events of tenant id.
func (lg *loadGen) ack(id string, n int) {
	lg.acked.Add(int64(n))
	lg.shardEv[lg.st.srv.TenantShard(id)].Add(int64(n))
}

// perConn runs drive once per connection, concurrently, and returns their errors.
func perConn(drive func(c int) error) error {
	errs := make([]error, maxConns)
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = drive(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedWindows is how many sub-windows a closed loop's measured window is
// cut into; the phase reports each one's rate, and the run their
// interquartile mean, so a transient stall of the shared host moves one
// sub-window, not the figure.
const closedWindows = 10

// closed runs the closed loop for dur and measures acknowledged events per
// second in closedWindows sub-windows after a warm-up of dur/6.
func (lg *loadGen) closed(dur time.Duration) error {
	var stop atomic.Bool
	deadline := time.Now().Add(dur + 30*time.Second)
	done := make(chan error, 1)
	go func() {
		done <- perConn(func(c int) error {
			if lg.in.w.transport == "tcp" {
				return lg.tcpClosed(c, &stop, deadline)
			}
			return lg.httpClosed(&stop)
		})
	}()
	warm := dur / 6
	time.Sleep(warm)
	c0, t0 := lg.acked.Load(), time.Now()
	base := t0
	for k := 1; k <= closedWindows; k++ {
		time.Sleep(time.Until(base.Add((dur - warm) * time.Duration(k) / closedWindows)))
		c1, t1 := lg.acked.Load(), time.Now()
		lg.ph.rates = append(lg.ph.rates, float64(c1-c0)/t1.Sub(t0).Seconds())
		c0, t0 = c1, t1
	}
	stop.Store(true)
	return <-done
}

// open runs the open loop: operation n is due at start + n/rate, spread
// round robin over the connections; the first dur/8 is warm-up.
func (lg *loadGen) open(dur time.Duration) error {
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(dur)
	warmEnd := start.Add(dur / 8)
	interval := time.Duration(float64(time.Second) * maxConns / lg.in.w.rate)
	err := perConn(func(c int) error {
		first := start.Add(time.Duration(c) * interval / maxConns)
		n := int(end.Sub(first)/interval) + 1
		if lg.in.w.transport == "tcp" {
			return lg.tcpOpen(c, first, interval, n, warmEnd, end.Add(30*time.Second))
		}
		return lg.httpOpen(first, interval, n, warmEnd)
	})
	return err
}

// ---- TCP frame protocol ----

// tcpClient is one connection carrying the tenants i ≡ c (mod maxConns).
// Tenants are long-lived: each replays its stream pass after pass in one
// session that is never closed.
type tcpClient struct {
	lg      *loadGen
	conn    net.Conn
	r       *bufio.Reader
	tenants []int
	pos     map[string]int
	next    []int
	pass    []int
	rr      int

	mu    sync.Mutex // guards queue: the open loop sends and reads on two goroutines
	queue [][]pending
	d     connStats
}

type pending struct {
	k         int
	later     bool // a pass after the first
	due, sent time.Time
}

func (lg *loadGen) dialTCP(c int, deadline time.Time) (*tcpClient, error) {
	conn, err := lg.dial(lg.st.addr)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	cl := &tcpClient{lg: lg, conn: conn, r: bufio.NewReaderSize(conn, 64*1024), pos: make(map[string]int)}
	for i := c; i < lg.in.w.streams; i += maxConns {
		cl.pos[tenantID(i)] = len(cl.tenants)
		cl.tenants = append(cl.tenants, i)
	}
	cl.next = make([]int, len(cl.tenants))
	cl.pass = make([]int, len(cl.tenants))
	cl.queue = make([][]pending, len(cl.tenants))
	return cl, nil
}

// send writes the next batch of the next tenant in round-robin order. A
// zero due time means "due now" (closed loop).
func (cl *tcpClient) send(due time.Time) error {
	j := cl.rr
	cl.rr = (cl.rr + 1) % len(cl.tenants)
	i, k, pass := cl.tenants[j], cl.next[j], cl.pass[j]
	if cl.next[j] = k + 1; cl.next[j] == cl.lg.in.w.batchesPerStream() {
		cl.next[j], cl.pass[j] = 0, pass+1
	}
	if k == 0 && pass == 0 {
		cl.d.sessions++
	}
	now := time.Now()
	if due.IsZero() {
		due = now
	}
	cl.mu.Lock()
	cl.queue[j] = append(cl.queue[j], pending{k: k, later: pass > 0, due: due, sent: now})
	cl.mu.Unlock()
	cl.d.ops++
	_, err := cl.conn.Write(cl.lg.in.frames[i][k])
	return err
}

// receive reads one reply, checks it against the serial reference and
// books it. An error means the connection failed.
func (cl *tcpClient) receive(warmEnd time.Time) error {
	f, err := serve.ReadFrame(cl.r, 0)
	if err != nil {
		return err
	}
	now := time.Now()
	j, ok := cl.pos[f.Tenant]
	cl.mu.Lock()
	if !ok || len(cl.queue[j]) == 0 {
		cl.mu.Unlock()
		return fmt.Errorf("reply for unexpected tenant %q (type %d)", f.Tenant, f.Type)
	}
	p := cl.queue[j][0]
	cl.queue[j] = cl.queue[j][1:]
	cl.mu.Unlock()
	i := cl.tenants[j]
	if f.Type == serve.FrameBusy {
		cl.d.busy++
		cl.lg.tl.fail("tenant %s batch %d refused busy", f.Tenant, p.k)
		return nil
	}
	n := cl.lg.in.checkFrame(f, i, p.k, p.later, cl.lg.tl)
	cl.lg.ack(f.Tenant, n)
	measured := !p.due.Before(warmEnd)
	if measured && !warmEnd.IsZero() {
		cl.d.samples = append(cl.d.samples, sample{due: p.due, lat: ms(now.Sub(p.due)), late: ms(p.sent.Sub(p.due))})
	}
	if cl.lg.record {
		cl.d.recs = append(cl.d.recs, clientRec{tenant: f.Tenant, t0: p.due, t1: now, batches: 1, measured: measured})
	}
	return nil
}

func (lg *loadGen) tcpClosed(c int, stop *atomic.Bool, deadline time.Time) error {
	cl, err := lg.dialTCP(c, deadline)
	if err != nil {
		return err
	}
	defer cl.conn.Close()
	defer lg.merge(&cl.d)
	inflight := 0
	for ; inflight < lg.in.w.depth; inflight++ {
		if err := cl.send(time.Time{}); err != nil {
			return err
		}
	}
	for ; inflight > 0; inflight-- {
		if err := cl.receive(time.Time{}); err != nil {
			return err
		}
		if !stop.Load() {
			if err := cl.send(time.Time{}); err != nil {
				return err
			}
			inflight++
		}
	}
	return nil
}

// tcpOpen sends n batches on this connection's schedule from one
// goroutine while a second reads the replies.
func (lg *loadGen) tcpOpen(c int, first time.Time, interval time.Duration, n int, warmEnd, deadline time.Time) error {
	cl, err := lg.dialTCP(c, deadline)
	if err != nil {
		return err
	}
	defer lg.merge(&cl.d)
	readErr := make(chan error, 1)
	go func() {
		for r := 0; r < n; r++ {
			if err := cl.receive(warmEnd); err != nil {
				readErr <- err
				return
			}
		}
		readErr <- nil
	}()
	sendErr := onSchedule(first, interval, n, func(_ int, due time.Time) error { return cl.send(due) })
	if sendErr != nil {
		cl.conn.Close() // unblocks the reader
		<-readErr
		return sendErr
	}
	err = <-readErr
	cl.conn.Close()
	return err
}

// checkFrame checks one reply frame against the serial reference of batch
// k of stream i and returns the events it acknowledged.
func (in *serveInputs) checkFrame(f serve.Frame, i, k int, later bool, tl *tally) int {
	if f.Type != serve.FrameScores {
		tl.fail("tenant %s batch %d: frame type %d (%q), want scores", f.Tenant, k, f.Type, f.Body)
		return 0
	}
	accepted, alarms, responses, err := serve.ParseScoresBody(f.Body)
	if err != nil {
		tl.fail("tenant %s batch %d: %v", f.Tenant, k, err)
		return 0
	}
	ref := in.outcome(i, k, later)
	tl.check(accepted == in.events(i, k), "tenant %s batch %d: ack for %d of %d events", f.Tenant, k, accepted, in.events(i, k))
	tl.check(alarms == ref.alarms, "tenant %s batch %d: %d alarms, serial Alarmer raised %d", f.Tenant, k, alarms, ref.alarms)
	tl.check(sameBits(responses, in.wireResponses(ref)), "tenant %s batch %d: responses differ from the serial Alarmer", f.Tenant, k)
	return accepted
}

// sameBits reports whether two response slices are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ---- NDJSON over HTTP ----

// Every HTTP request is one short-lived tenant session: the batches of one
// stream, one NDJSON line each, under a tenant id never used before, the
// last line closing the tenant. Session n replays stream n mod streams.

func sessionID(n int64) string { return fmt.Sprintf("s%07d", n) }

// newHTTPClient returns the phase's one client: both connection goroutines share it, so
// the phase never opens more than maxConns connections.
func (lg *loadGen) newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		DialContext: func(_ context.Context, network, addr string) (net.Conn, error) {
			return lg.dial(addr)
		},
	}}
}

// session posts one session request and checks every response line.
func (lg *loadGen) session(d *connStats, due time.Time, warmEnd time.Time) error {
	n := lg.nextSession.Add(1) - 1
	id := sessionID(n)
	i := int(n % int64(lg.in.w.streams))
	body := lg.in.requestBody(nil, id, i)
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	d.ops++
	d.sessions++
	resp, err := lg.hc.Post("http://"+lg.st.addr+"/v1/push", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	now := time.Now()
	if resp.StatusCode == http.StatusTooManyRequests {
		d.busy++
		lg.tl.fail("session %s refused busy", id)
		return nil
	}
	events := lg.in.checkResponse(resp.StatusCode, reply, id, i, lg.tl)
	lg.ack(id, events)
	measured := !due.Before(warmEnd)
	if measured && !warmEnd.IsZero() {
		d.samples = append(d.samples, sample{due: due, lat: ms(now.Sub(due)), late: ms(sent.Sub(due))})
	}
	if lg.record {
		d.recs = append(d.recs, clientRec{tenant: id, t0: due, t1: now, batches: len(lg.in.lines[i]), measured: measured})
	}
	return nil
}

func (lg *loadGen) httpClosed(stop *atomic.Bool) error {
	var d connStats
	defer lg.merge(&d)
	for !stop.Load() {
		if err := lg.session(&d, time.Time{}, time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

func (lg *loadGen) httpOpen(first time.Time, interval time.Duration, n int, warmEnd time.Time) error {
	var d connStats
	defer lg.merge(&d)
	return onSchedule(first, interval, n, func(_ int, due time.Time) error {
		return lg.session(&d, due, warmEnd)
	})
}

// requestBody appends the NDJSON body of one session of stream i.
func (in *serveInputs) requestBody(dst []byte, tenant string, i int) []byte {
	for k, syms := range in.lines[i] {
		dst = append(dst, `{"tenant":"`...)
		dst = append(dst, tenant...)
		dst = append(dst, `","symbols":`...)
		dst = append(dst, syms...)
		if k == len(in.lines[i])-1 {
			dst = append(dst, `,"close":true`...)
		}
		dst = append(dst, "}\n"...)
	}
	return dst
}

// checkResponse checks a session reply line by line against the serial
// reference and returns the events it acknowledged.
func (in *serveInputs) checkResponse(status int, body []byte, tenant string, i int, tl *tally) int {
	if status != http.StatusOK {
		tl.fail("session %s: status %d: %s", tenant, status, bytes.TrimSpace(body))
		return 0
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != len(in.lines[i]) {
		tl.fail("session %s: %d response lines for %d requests", tenant, len(lines), len(in.lines[i]))
		return 0
	}
	events := 0
	for k, line := range lines {
		var r serve.PushResponse
		if err := json.Unmarshal(line, &r); err != nil {
			tl.fail("session %s line %d: %v", tenant, k, err)
			continue
		}
		ref := in.ref[i][k]
		last := k == len(lines)-1
		ok := r.Tenant == tenant && r.Error == "" && r.Accepted == in.events(i, k) &&
			r.Alarms == ref.alarms && r.Closed == last && sameBits(r.Responses, ref.responses)
		tl.check(ok, "session %s line %d differs from the serial Alarmer: %s", tenant, k, line)
		events += r.Accepted
	}
	return events
}

// ---- direct submission ----

// direct bypasses the transport: operations fall due on the open loop's
// schedule and go straight to Server.Submit, so queue wait — from the
// Submit call to the scorer's PushBatch — is timed under the load the
// latency phase offers. An operation is one batch of a long-lived tenant
// (tcp) or one session's batches submitted one after another, each waiting
// for the previous, as the HTTP handler does (http).
func (lg *loadGen) direct(dur time.Duration) error {
	w := lg.in.w
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(dur)
	warmEnd := start.Add(dur / 8)
	interval := time.Duration(float64(time.Second) * maxConns / w.rate)
	return perConn(func(c int) error {
		var d connStats
		defer lg.merge(&d)
		var tenants []int
		for i := c; i < w.streams; i += maxConns {
			tenants = append(tenants, i)
		}
		next := make([]int, len(tenants))
		pass := make([]int, len(tenants))
		done := make(chan serve.Result, 1)
		submit := func(id string, i, k int, later, last bool, due time.Time) error {
			t0 := time.Now()
			d.recs = append(d.recs, clientRec{tenant: id, t0: t0, batches: 1, measured: !due.Before(warmEnd)})
			d.ops++
			if err := lg.st.srv.Submit(id, lg.in.batches[i][k], last, func(res serve.Result) { done <- res }); err != nil {
				return err
			}
			res := <-done
			ref := lg.in.outcome(i, k, later)
			ok := res.Err == nil && res.Alarms == ref.alarms && res.Closed == last && sameBits(res.Responses, ref.responses)
			lg.tl.check(ok, "direct submit %s batch %d differs from the serial Alarmer", id, k)
			lg.ack(id, lg.in.events(i, k))
			return nil
		}
		first := start.Add(time.Duration(c) * interval / maxConns)
		n := int(end.Sub(first)/interval) + 1
		return onSchedule(first, interval, n, func(s int, due time.Time) error {
			j := s % len(tenants)
			i := tenants[j]
			if w.transport == "http" {
				d.sessions++
				id := fmt.Sprintf("d%d-%07d", c, s)
				for k := range lg.in.batches[i] {
					if err := submit(id, i, k, false, k == len(lg.in.batches[i])-1, due); err != nil {
						return err
					}
				}
				return nil
			}
			k, p := next[j], pass[j]
			if next[j] = k + 1; next[j] == w.batchesPerStream() {
				next[j], pass[j] = 0, p+1
			}
			return submit(tenantID(i), i, k, p > 0, false, due)
		})
	})
}

// ---- shared helpers ----

// dial opens a loopback connection whose bytes are counted.
func (lg *loadGen) dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, in: &lg.bytesIn, out: &lg.bytesOut}, nil
}

type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
