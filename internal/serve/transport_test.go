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
	"strings"
	"sync"
	"testing"
	"time"

	"adiv/internal/alphabet"
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
		stall    bool // occupy shard 0's worker and fill its queue first
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
			s, err := NewServer(Config{
				Shards:     2,
				QueueDepth: depth,
				NewTenant:  func() (TenantScorer, error) { return stubTenant{}, nil },
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTCPServer(s, ln)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ts.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() { ts.Shutdown(); wg.Wait() })
	return ts
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

func symbolBytes(stream seq.Stream) []byte {
	out := make([]byte, len(stream))
	for i, s := range stream {
		out[i] = byte(s)
	}
	return out
}
