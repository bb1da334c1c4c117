package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adiv/internal/alphabet"
	"adiv/internal/detector/stide"
	"adiv/internal/seq"
)

func TestHTTPPushEquivalence(t *testing.T) {
	g := testGen(t)
	s := newTestServer(t, 2, 8, 0)
	defer s.Drain()
	h := NewHTTPHandler(s)

	stream := g.Noisy(500, 3)
	want := batchResponses(t, g, stream)

	// Two tenants interleaved in one body; tenant b runs quiet.
	var body bytes.Buffer
	for off := 0; off < len(stream); off += 113 {
		end := off + 113
		if end > len(stream) {
			end = len(stream)
		}
		for _, req := range []PushRequest{
			{Tenant: "http-a", Symbols: intsOf(stream[off:end])},
			{Tenant: "http-b", Symbols: intsOf(stream[off:end]), Quiet: true},
		} {
			line, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			body.Write(line)
			body.WriteByte('\n')
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/push", &body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got []float64
	accepted := 0
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var resp PushResponse
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		if resp.Error != "" {
			t.Fatalf("response error: %s", resp.Error)
		}
		switch resp.Tenant {
		case "http-a":
			got = append(got, resp.Responses...)
			accepted += resp.Accepted
		case "http-b":
			if len(resp.Responses) != 0 {
				t.Fatal("quiet request returned responses")
			}
		default:
			t.Fatalf("unknown tenant %q", resp.Tenant)
		}
	}
	if accepted != len(stream) {
		t.Fatalf("accepted %d, want %d", accepted, len(stream))
	}
	if len(got) != len(want) {
		t.Fatalf("%d responses, want %d", len(got), len(want))
	}
	for i := range got {
		// JSON float64 encoding is shortest-round-trip, so even the HTTP
		// path must be bit-identical to the serial scorer.
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("response %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestHTTPPushRejections(t *testing.T) {
	s := newTestServer(t, 1, 4, 0)
	h := NewHTTPHandler(s)

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/push", strings.NewReader(body)))
		return rec
	}
	if rec := post(`{"symbols":[1]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing tenant: status %d", rec.Code)
	}
	if rec := post("not json\n"); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage line: status %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/push", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", rec.Code)
	}

	s.Drain()
	if rec := post(`{"tenant":"t","symbols":[1]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d", rec.Code)
	}
}

// stubTenant answers each symbol with its own value, NaN for symbol nanSym,
// and fails the whole batch on symbol failSym.
type stubTenant struct{}

const nanSym, failSym = 7, 9

func (stubTenant) PushBatch(syms []alphabet.Symbol) ([]float64, int, error) {
	out := make([]float64, len(syms))
	for i, s := range syms {
		switch s {
		case nanSym:
			out[i] = math.NaN()
		case failSym:
			return nil, 0, errors.New("stub: scoring failed")
		default:
			out[i] = float64(s)
		}
	}
	return out, 0, nil
}

func (stubTenant) SetTenant(string) {}
func (stubTenant) Reset()           {}

// TestHTTPPushPartialFailure posts multi-line bodies that fail partway: the
// lines before the failure are answered, the failing line is answered with
// its error, the status names the failure, and no later line is submitted.
func TestHTTPPushPartialFailure(t *testing.T) {
	// In bodies and wanted tenants, %[1]s routes to shard 0 and %[2]s to
	// shard 1.
	cases := []struct {
		name     string
		body     string
		stall    bool  // occupy shard 0's worker and fill its queue first
		newFails int64 // the NewTenant call that fails, counted from 1; 0 for none
		status   int
		want     []PushResponse // Error: a substring the line's error must hold
		accepted int64          // events the body got accepted
		busy     int64
	}{
		{
			name: "malformed third line",
			body: `{"tenant":"%[1]s","symbols":[1,2]}
{"tenant":"%[2]s","symbols":[3]}
{"tenant":"%[1]s","symbols":[1.5]}
{"tenant":"%[1]s","symbols":[4]}`,
			status: http.StatusBadRequest,
			want: []PushResponse{
				{Tenant: "%[1]s", Accepted: 2, Responses: []float64{1, 2}},
				{Tenant: "%[2]s", Accepted: 1, Responses: []float64{3}},
				{Error: "bad request line"},
			},
			accepted: 3,
		},
		{
			name: "busy second line",
			body: `{"tenant":"%[2]s","symbols":[1]}
{"tenant":"%[1]s","symbols":[2]}
{"tenant":"%[2]s","symbols":[3]}`,
			stall:  true,
			status: http.StatusTooManyRequests,
			want: []PushResponse{
				{Tenant: "%[2]s", Accepted: 1, Responses: []float64{1}},
				{Tenant: "%[1]s", Error: ErrBusy.Error()},
			},
			accepted: 1,
			busy:     1,
		},
		{
			name: "scoring error on the second line",
			body: `{"tenant":"%[1]s","symbols":[1]}
{"tenant":"%[1]s","symbols":[2,9]}
{"tenant":"%[1]s","symbols":[3]}`,
			status: http.StatusInternalServerError,
			want: []PushResponse{
				{Tenant: "%[1]s", Accepted: 1, Responses: []float64{1}},
				{Tenant: "%[1]s", Accepted: 2, Error: "stub: scoring failed"},
			},
			accepted: 3,
		},
		{
			name: "NewTenant error on the second line",
			body: `{"tenant":"%[1]s","symbols":[1]}
{"tenant":"%[2]s","symbols":[2,3]}
{"tenant":"%[1]s","symbols":[4]}`,
			newFails: 2,
			status:   http.StatusInternalServerError,
			want: []PushResponse{
				{Tenant: "%[1]s", Accepted: 1, Responses: []float64{1}},
				{Tenant: "%[2]s", Accepted: 2, Error: "stub: no tenant"},
			},
			accepted: 3,
		},
		{
			name: "non-finite response on the second line",
			body: `{"tenant":"%[2]s","symbols":[1]}
{"tenant":"%[2]s","symbols":[2,7],"close":true}
{"tenant":"%[2]s","symbols":[3]}`,
			status: http.StatusInternalServerError,
			want: []PushResponse{
				{Tenant: "%[2]s", Accepted: 1, Responses: []float64{1}},
				{Tenant: "%[2]s", Accepted: 2, Closed: true, Error: "JSON cannot encode"},
			},
			accepted: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const depth = 1
			var calls atomic.Int64
			s, err := NewServer(Config{
				Shards:     2,
				QueueDepth: depth,
				NewTenant: func() (TenantScorer, error) {
					if calls.Add(1) == tc.newFails {
						return nil, errors.New("stub: no tenant")
					}
					return stubTenant{}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Drain()
			tenants := []any{tenantOnShard(t, s, 0), tenantOnShard(t, s, 1)}
			if tc.stall {
				release := stallShard(t, s, tenants[0].(string), depth)
				defer close(release)
			}
			before := s.Stats()

			rec := httptest.NewRecorder()
			h := NewHTTPHandler(s)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/push",
				strings.NewReader(fmt.Sprintf(tc.body, tenants...))))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
			if len(lines) != len(tc.want) {
				t.Fatalf("%d response lines, want %d: %s", len(lines), len(tc.want), rec.Body)
			}
			for i, want := range tc.want {
				var got PushResponse
				if err := json.Unmarshal([]byte(lines[i]), &got); err != nil {
					t.Fatalf("line %d %q: %v", i+1, lines[i], err)
				}
				if want.Tenant != "" {
					want.Tenant = fmt.Sprintf(want.Tenant, tenants...)
				}
				if (got.Error == "") != (want.Error == "") || !strings.Contains(got.Error, want.Error) {
					t.Fatalf("line %d error %q, want one holding %q", i+1, got.Error, want.Error)
				}
				got.Error, want.Error = "", ""
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("line %d = %+v, want %+v", i+1, got, want)
				}
			}
			after := s.Stats()
			if n := after.Accepted - before.Accepted; n != tc.accepted {
				t.Fatalf("%d events accepted, want %d", n, tc.accepted)
			}
			if n := after.Busy - before.Busy; n != tc.busy {
				t.Fatalf("%d busy rejections, want %d", n, tc.busy)
			}
		})
	}
}

// BenchmarkHTTPPush drives one http-churn style session through the HTTP
// handler per iteration: four 64-event lines for one tenant, the last with
// close, so every iteration opens a recycled stream.
func BenchmarkHTTPPush(b *testing.B) {
	g := testGen(b)
	s := newTestServer(b, 1, 8, 0)
	defer s.Drain()
	h := NewHTTPHandler(s)
	stream := g.Noisy(4*64, 5)
	var body []byte
	for i := 0; i < 4; i++ {
		line, err := json.Marshal(PushRequest{Tenant: "bench", Symbols: intsOf(stream[i*64 : (i+1)*64]), Close: i == 3})
		if err != nil {
			b.Fatal(err)
		}
		body = append(append(body, line...), '\n')
	}
	b.ReportAllocs()
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/push", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

func intsOf(stream seq.Stream) []int {
	out := make([]int, len(stream))
	for i, s := range stream {
		out[i] = int(s)
	}
	return out
}

// tcpClient is a minimal synchronous client for the frame protocol.
type tcpClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialTCP(t *testing.T, addr string) *tcpClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &tcpClient{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (c *tcpClient) send(f Frame) {
	c.t.Helper()
	if _, err := c.conn.Write(AppendFrame(nil, f)); err != nil {
		c.t.Fatal(err)
	}
}

func (c *tcpClient) recv() Frame {
	c.t.Helper()
	f, err := ReadFrame(c.r, 0)
	if err != nil {
		c.t.Fatal(err)
	}
	return f
}

func startTCP(t *testing.T, s *Server) *TCPServer {
	t.Helper()
	ts, _ := startCountingTCP(t, s)
	return ts
}

// startCountingTCP serves s on a loopback listener whose connections count
// the server's Write calls into the returned counter.
func startCountingTCP(t testing.TB, s *Server) (*TCPServer, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writes := new(atomic.Int64)
	ts := NewTCPServer(s, countingListener{ln, writes})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ts.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() { ts.Shutdown(); wg.Wait() })
	return ts, writes
}

type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func TestTCPPushEquivalence(t *testing.T) {
	g := testGen(t)
	s := newTestServer(t, 2, 8, 0)
	defer s.Drain()
	ts := startTCP(t, s)

	stream := g.Noisy(700, 5)
	want := batchResponses(t, g, stream)

	c := dialTCP(t, ts.Addr().String())
	var got []float64
	scored := 0
	for off := 0; off < len(stream); off += 211 {
		end := off + 211
		if end > len(stream) {
			end = len(stream)
		}
		c.send(Frame{Type: FrameEvents, Tenant: "tcp-a", Body: symbolBytes(stream[off:end])})
		f := c.recv()
		if f.Type == FrameBusy {
			off -= 211 // retry the batch
			continue
		}
		if f.Type != FrameScores {
			t.Fatalf("frame type %d: %s", f.Type, f.Body)
		}
		accepted, _, responses, err := ParseScoresBody(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		scored += accepted
		got = append(got, responses...)
	}
	c.send(Frame{Type: FrameClose, Tenant: "tcp-a"})
	if f := c.recv(); f.Type != FrameClosed {
		t.Fatalf("close ack type %d", f.Type)
	}

	if scored != len(stream) {
		t.Fatalf("accepted %d, want %d", scored, len(stream))
	}
	if len(got) != len(want) {
		t.Fatalf("%d responses, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("response %d: served %v != serial %v", i, got[i], want[i])
		}
	}
}

func TestTCPRejectsForeignTraffic(t *testing.T) {
	s := newTestServer(t, 1, 4, 0)
	defer s.Drain()
	ts := startTCP(t, s)

	c := dialTCP(t, ts.Addr().String())
	if _, err := c.conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	f := c.recv()
	if f.Type != FrameError {
		t.Fatalf("frame type %d, want FrameError", f.Type)
	}
	// The server must then drop the connection.
	if _, err := ReadFrame(c.r, 0); err == nil {
		t.Fatal("connection stayed open after protocol error")
	}
}

// TestTCPNewTenantErrorKeepsConnection: a tenant whose NewTenant fails gets
// an Error frame, and the connection stays open for its other tenants.
func TestTCPNewTenantErrorKeepsConnection(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	s, err := NewServer(Config{NewTenant: func() (TenantScorer, error) {
		if failing.Load() {
			return nil, errors.New("stub: no tenant")
		}
		return stubTenant{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	c := dialTCP(t, startTCP(t, s).Addr().String())

	c.send(Frame{Type: FrameEvents, Tenant: "bad", Body: []byte{1, 2}})
	if f := c.recv(); f.Type != FrameError || f.Tenant != "bad" || !strings.Contains(string(f.Body), "stub: no tenant") {
		t.Fatalf("failed open: frame type %d tenant %q body %q, want an Error frame for bad", f.Type, f.Tenant, f.Body)
	}
	failing.Store(false)
	c.send(Frame{Type: FrameEvents, Tenant: "good", Body: []byte{3}})
	f := c.recv()
	if f.Type != FrameScores || f.Tenant != "good" {
		t.Fatalf("after a failed open: frame type %d tenant %q body %q, want Scores for good", f.Type, f.Tenant, f.Body)
	}
	if accepted, _, responses, err := ParseScoresBody(f.Body); err != nil || accepted != 1 || !reflect.DeepEqual(responses, []float64{3}) {
		t.Fatalf("good: accepted %d responses %v err %v", accepted, responses, err)
	}
}

func TestTCPShutdownMidLoadLosesNothing(t *testing.T) {
	g := testGen(t)
	s := newTestServer(t, 2, 16, 0)
	ts := startTCP(t, s)

	stream := g.Noisy(3_000, 9)
	const clients = 4
	var wg sync.WaitGroup
	acked := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ts.Addr().String())
			if err != nil {
				return // shutdown won the race before this client connected
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			tenant := fmt.Sprintf("shutdown-%d", i)
			for off := 0; off < len(stream); off += 97 {
				end := off + 97
				if end > len(stream) {
					end = len(stream)
				}
				frame := AppendFrame(nil, Frame{Type: FrameEventsQuiet, Tenant: tenant, Body: symbolBytes(stream[off:end])})
				if _, err := conn.Write(frame); err != nil {
					return // shutdown raced the write; nothing was accepted
				}
				f, err := ReadFrame(r, 0)
				if err != nil {
					return // connection torn down before the ack
				}
				switch f.Type {
				case FrameScores:
					accepted, _, _, err := ParseScoresBody(f.Body)
					if err != nil {
						t.Error(err)
						return
					}
					acked[i] += accepted
				case FrameBusy:
					off -= 97 // retry
				default:
					return
				}
			}
		}(i)
	}
	// Let the load get going, then shut down mid-stream and drain the core.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Accepted < 2_000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ts.Shutdown()
	s.Drain()
	wg.Wait()

	stats := s.Stats()
	if stats.Accepted != stats.Scored {
		t.Fatalf("accepted %d != scored %d", stats.Accepted, stats.Scored)
	}
	total := 0
	for _, n := range acked {
		total += n
	}
	// Every acked event was scored; the server may have scored a few more
	// whose acks were lost in the teardown race.
	if int64(total) > stats.Scored {
		t.Fatalf("clients hold acks for %d events, server scored %d", total, stats.Scored)
	}
}

// TestTCPPipelinedEquivalence pipelines many tenants over each connection,
// so replies that become ready together leave in one server write: every
// tenant's replies must still arrive in order and match batch Score bit for
// bit, with its Closed reply last.
func TestTCPPipelinedEquivalence(t *testing.T) {
	g := testGen(t)
	det := testStide(t, g)
	const conns, perConn = 2, 8
	streams := make([]seq.Stream, conns*perConn)
	want := make([][]float64, len(streams))
	for i := range streams {
		streams[i] = g.Noisy(500+37*i, uint64(i+1))
		var err error
		if want[i], err = det.Score(streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := NewServer(Config{Shards: shards, QueueDepth: 4, NewTenant: tenantsOver(det, 0)})
			if err != nil {
				t.Fatal(err)
			}
			ts, writes := startCountingTCP(t, s)
			var replies atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func(lo int) {
					defer wg.Done()
					pipelineTenants(t, ts.Addr().String(), streams[lo:lo+perConn], want[lo:lo+perConn], lo, &replies)
				}(c * perConn)
			}
			wg.Wait()
			ts.Shutdown()
			stats := s.Drain()
			total := 0
			for _, stream := range streams {
				total += len(stream)
			}
			if stats.Accepted != int64(total) || stats.Scored != int64(total) {
				t.Fatalf("accepted %d, scored %d, want %d", stats.Accepted, stats.Scored, total)
			}
			t.Logf("%d server writes for %d replies (%.3f writes/reply)",
				writes.Load(), replies.Load(), float64(writes.Load())/float64(replies.Load()))
		})
	}
}

// pipelineTenants drives streams as tenants tenant-lo, tenant-lo+1, … over
// one connection. A sender goroutine writes the next frame of any tenant
// whose previous frame was answered, alternating Events and EventsQuiet and
// ending with a Close, and resends a frame answered Busy; the reader checks
// each reply against want in order. A tenant keeps one frame in flight, so
// a Busy never reorders its stream, while the connection keeps one per
// tenant in flight. It reports failures with t.Error.
func pipelineTenants(t *testing.T, addr string, streams []seq.Stream, want [][]float64, lo int, replies *atomic.Int64) {
	const batch = 61
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a hang fails the read below
	tenantIdx := make(map[string]int, len(streams))
	for j := range streams {
		tenantIdx[fmt.Sprintf("tenant-%d", lo+j)] = j
	}
	// next[j] is tenant j's next event offset, or len(stream) once only its
	// Close is left. The ready channel hands j between the goroutines, so
	// next[j] is never accessed by both at once.
	next := make([]int, len(streams))
	ready := make(chan int, len(streams))
	for j := range streams {
		ready <- j
	}
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		var buf []byte
		for j := range ready {
			tenant := fmt.Sprintf("tenant-%d", lo+j)
			off := next[j]
			f := Frame{Type: FrameClose, Tenant: tenant}
			if off < len(streams[j]) {
				end := min(off+batch, len(streams[j]))
				f = Frame{Type: FrameEvents, Tenant: tenant, Body: symbolBytes(streams[j][off:end])}
				if (off/batch)%2 == 1 {
					f.Type = FrameEventsQuiet
				}
			}
			buf = AppendFrame(buf[:0], f)
			if _, err := conn.Write(buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { <-sendDone }()

	r := bufio.NewReader(conn)
	got := make([][]float64, len(streams))
	for open := len(streams); open > 0; {
		f, err := ReadFrame(r, 0)
		if err != nil {
			t.Error(err)
			close(ready)
			return
		}
		replies.Add(1)
		j, ok := tenantIdx[f.Tenant]
		if !ok {
			t.Errorf("reply for unknown tenant %q", f.Tenant)
			close(ready)
			return
		}
		stream, off := streams[j], next[j]
		switch {
		case f.Type == FrameBusy:
		case f.Type == FrameScores && off < len(stream):
			end := min(off+batch, len(stream))
			accepted, _, responses, err := ParseScoresBody(f.Body)
			if err != nil || accepted != end-off {
				t.Errorf("%s at %d: accepted %d of %d (%v)", f.Tenant, off, accepted, end-off, err)
				close(ready)
				return
			}
			// The batch completes the windows ending in [off, end); lag is
			// the extent minus one.
			lag := len(stream) - len(want[j])
			n := max(0, end-lag) - max(0, off-lag)
			if (off/batch)%2 == 1 {
				if len(responses) != 0 {
					t.Errorf("%s at %d: quiet batch returned %d responses", f.Tenant, off, len(responses))
				}
				responses = want[j][len(got[j]) : len(got[j])+n]
			} else if len(responses) != n {
				t.Errorf("%s at %d: %d responses, want %d", f.Tenant, off, len(responses), n)
				close(ready)
				return
			}
			got[j] = append(got[j], responses...)
			next[j] = end
		case f.Type == FrameClosed && off == len(stream):
			open--
			continue // nothing more to send for tenant j
		default:
			t.Errorf("%s at %d of %d: unexpected frame type %d: %s", f.Tenant, off, len(stream), f.Type, f.Body)
			close(ready)
			return
		}
		ready <- j
	}
	close(ready)
	for j := range got {
		if len(got[j]) != len(want[j]) {
			t.Errorf("tenant-%d: %d responses, want %d", lo+j, len(got[j]), len(want[j]))
			continue
		}
		for i := range got[j] {
			if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
				t.Errorf("tenant-%d response %d: served %v != serial %v", lo+j, i, got[j][i], want[j][i])
				break
			}
		}
	}
}

// TestTCPSlowReaderIsolated connects a client that pipelines frames and
// never reads its replies. Its connection is dropped once its reply backlog
// fills, while a tenant on the same shard, on another connection, keeps
// getting correct replies; accepted batches are still all scored, and
// Shutdown returns.
func TestTCPSlowReaderIsolated(t *testing.T) {
	g := testGen(t)
	s := newTestServer(t, 2, 8, 0)
	ts := startTCP(t, s)
	stalled := tenantOnShard(t, s, 0)
	flowing := ""
	for i := 0; flowing == ""; i++ {
		if id := fmt.Sprintf("flowing-%d", i); s.TenantShard(id) == s.TenantShard(stalled) {
			flowing = id
		}
	}

	sc, err := net.Dial("tcp", ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	// Full-size batches with responses: each reply is ~64 KiB, so the
	// socket buffers and then the backlog fill within a few hundred frames.
	big := AppendFrame(nil, Frame{Type: FrameEvents, Tenant: stalled, Body: symbolBytes(g.Noisy(8192, 11))})
	stalledClosed := make(chan error, 1)
	go func() {
		for {
			if _, err := sc.Write(big); err != nil {
				stalledClosed <- err
				return
			}
		}
	}()

	stream := g.Noisy(700, 5)
	want := batchResponses(t, g, stream)
	c := dialTCP(t, ts.Addr().String())
	// recv fails the test if the flowing tenant's shard stops answering.
	recv := func() Frame {
		t.Helper()
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a failed set shows as a failed read
		return c.recv()
	}
	// pass streams the flowing tenant once, then closes it.
	pass := func() {
		t.Helper()
		var got []float64
		for off := 0; off < len(stream); {
			end := min(off+211, len(stream))
			c.send(Frame{Type: FrameEvents, Tenant: flowing, Body: symbolBytes(stream[off:end])})
			switch f := recv(); f.Type {
			case FrameBusy:
			case FrameScores:
				_, _, responses, err := ParseScoresBody(f.Body)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, responses...)
				off = end
			default:
				t.Fatalf("frame type %d: %s", f.Type, f.Body)
			}
		}
		for closed := false; !closed; {
			c.send(Frame{Type: FrameClose, Tenant: flowing})
			switch f := recv(); f.Type {
			case FrameBusy:
			case FrameClosed:
				closed = true
			default:
				t.Fatalf("close ack type %d: %s", f.Type, f.Body)
			}
		}
		sameBits(t, "flowing", got, want)
	}
	deadline := time.Now().Add(20 * time.Second)
	var closeErr error
	for passes := 1; closeErr == nil; passes++ {
		if time.Now().After(deadline) {
			t.Fatal("the stalled connection was never closed")
		}
		pass()
		select {
		case closeErr = <-stalledClosed:
			t.Logf("stalled connection closed by flowing pass %d: %v", passes, closeErr)
		default:
		}
	}

	shutdown := make(chan struct{})
	go func() {
		ts.Shutdown()
		close(shutdown)
	}()
	select {
	case <-shutdown:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if stats := s.Drain(); stats.Accepted != stats.Scored {
		t.Fatalf("accepted %d != scored %d", stats.Accepted, stats.Scored)
	}
}

// BenchmarkTCPPush is the tcp-stide workload over loopback in one process:
// stide DW 6, 16 tenants replaying 256-event quiet frames over 2
// connections with 32 frames in flight each, GOMAXPROCS shards. One op is
// one frame answered; writes/reply is the server's socket writes per reply.
func BenchmarkTCPPush(b *testing.B) {
	const conns, tenants, batch, depth = 2, 16, 256, 32
	g := testGen(b)
	sd, err := stide.New(6)
	det := trainedOn(b, g, sd, err)
	s, err := NewServer(Config{Shards: runtime.GOMAXPROCS(0), QueueDepth: 128, NewTenant: tenantsOver(det, 0)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	ts, writes := startCountingTCP(b, s)
	// frames[i] is tenant i's stream cut into quiet frames, replayed in turn.
	frames := make([][][]byte, tenants)
	for i := range frames {
		stream := g.Noisy(64*batch, uint64(i+1))
		for off := 0; off < len(stream); off += batch {
			frames[i] = append(frames[i], AppendFrame(nil, Frame{
				Type: FrameEventsQuiet, Tenant: fmt.Sprintf("t%02d", i), Body: symbolBytes(stream[off : off+batch]),
			}))
		}
	}
	drive := func(c, ops int) error {
		conn, err := net.Dial("tcp", ts.Addr().String())
		if err != nil {
			return err
		}
		defer conn.Close()
		r := bufio.NewReaderSize(conn, 64*1024)
		var buf []byte
		sent := 0
		send := func() error {
			i := c + conns*(sent%(tenants/conns))
			frame := frames[i][(sent/(tenants/conns))%len(frames[i])]
			sent++
			_, err := conn.Write(frame)
			return err
		}
		for sent < min(depth, ops) {
			if err := send(); err != nil {
				return err
			}
		}
		for got := 0; got < ops; got++ {
			var f Frame
			if f, buf, err = readFrame(r, 0, buf); err != nil {
				return err
			}
			if f.Type != FrameScores {
				return fmt.Errorf("reply type %d: %s", f.Type, f.Body)
			}
			if sent < ops {
				if err := send(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	w0 := writes.Load()
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := b.N / conns
			if c < b.N%conns {
				ops++
			}
			errs[c] = drive(c, ops)
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	if err := errors.Join(errs...); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(writes.Load()-w0)/float64(b.N), "writes/reply")
}

func symbolBytes(stream seq.Stream) []byte {
	out := make([]byte, len(stream))
	for i, s := range stream {
		out[i] = byte(s)
	}
	return out
}
