package serve

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adiv/internal/alphabet"
)

// TCPServer runs the length-prefixed framing (see protocol.go) on a
// listener. Frames from one connection are submitted in arrival order and
// pipeline freely — the client does not need to wait for a Scores frame
// before sending the next batch; responses carry the tenant id for
// correlation and stay in per-tenant order (one tenant, one shard, FIFO).
type TCPServer struct {
	srv    *Server
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewTCPServer wraps srv on ln; call Serve to start accepting.
func NewTCPServer(srv *Server, ln net.Listener) *TCPServer {
	return &TCPServer{srv: srv, ln: ln, conns: make(map[net.Conn]struct{})}
}

// Addr returns the listener address.
func (t *TCPServer) Addr() net.Addr { return t.ln.Addr() }

// Serve accepts connections until Shutdown closes the listener. It returns
// nil on clean shutdown.
func (t *TCPServer) Serve() error {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.closed.Load() {
				return nil
			}
			return err
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return nil
		}
		t.conns[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go func() {
			defer func() {
				t.mu.Lock()
				delete(t.conns, conn)
				t.mu.Unlock()
				t.wg.Done()
			}()
			t.handle(conn)
		}()
	}
}

// Shutdown stops intake: closes the listener, kicks every open connection's
// read loop via a read deadline, and waits for the connection handlers to
// finish writing their in-flight responses. Accepted batches are NOT lost —
// handlers wait for their outstanding submissions before exiting.
func (t *TCPServer) Shutdown() {
	if !t.closed.CompareAndSwap(false, true) {
		t.wg.Wait()
		return
	}
	t.ln.Close()
	t.mu.Lock()
	for conn := range t.conns {
		conn.SetReadDeadline(time.Now()) //nolint:errcheck // best-effort kick
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// handle runs one connection: a single read loop submits frames; shard
// workers deliver results to the write side, serialized by wmu. The read
// loop never blocks on a slow shard (Submit is non-blocking), so one
// stalled tenant cannot head-of-line-block a connection's other tenants.
func (t *TCPServer) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64*1024)
	max := t.srv.MaxFrameBytes()

	// frame and body are the connection's reply buffers, reused under wmu:
	// conn.Write returns before the lock is released, so no write still
	// reads a buffer the next reply overwrites.
	var wmu sync.Mutex
	var frame, body []byte
	var outstanding sync.WaitGroup
	write := func(f Frame) { // wmu held
		frame = AppendFrame(frame[:0], f)
		conn.Write(frame) //nolint:errcheck // reader sees the broken conn
	}
	writeFrame := func(f Frame) {
		wmu.Lock()
		defer wmu.Unlock()
		write(f)
	}
	writeScores := func(typ uint8, tenant string, accepted, alarms int, responses []float64) {
		wmu.Lock()
		defer wmu.Unlock()
		body = AppendScoresBody(body[:0], accepted, alarms, responses)
		write(Frame{Type: typ, Tenant: tenant, Body: body})
	}

	for {
		f, err := ReadFrame(r, max)
		if err != nil {
			var nerr net.Error
			switch {
			case err == io.EOF:
				// Clean close at a frame boundary.
			case errors.As(err, &nerr) && nerr.Timeout():
				// Shutdown kicked the read deadline; drain what we have.
			default:
				writeFrame(Frame{Type: FrameError, Body: []byte(err.Error())})
			}
			break
		}
		var closeAfter, quiet bool
		switch f.Type {
		case FrameEvents:
		case FrameEventsQuiet:
			quiet = true
		case FrameClose:
			closeAfter = true
		default:
			writeFrame(Frame{Type: FrameError, Tenant: f.Tenant, Body: []byte("serve: unexpected client frame type")})
			goto drain
		}

		{
			tenant := f.Tenant
			syms := bytesToSymbols(f.Body) // copies; f.Body dies with this frame
			outstanding.Add(1)
			err := t.srv.Submit(tenant, syms, closeAfter, func(res Result) {
				defer outstanding.Done()
				if res.Err != nil {
					writeFrame(Frame{Type: FrameError, Tenant: tenant, Body: []byte(res.Err.Error())})
					return
				}
				typ := uint8(FrameScores)
				if res.Closed {
					typ = FrameClosed
				}
				responses := res.Responses
				if quiet {
					responses = nil
				}
				writeScores(typ, tenant, len(syms), res.Alarms, responses)
			})
			if err != nil {
				outstanding.Done()
				if errors.Is(err, ErrBusy) || errors.Is(err, ErrDraining) {
					writeFrame(Frame{Type: FrameBusy, Tenant: tenant, Body: []byte(err.Error())})
					continue
				}
				writeFrame(Frame{Type: FrameError, Tenant: tenant, Body: []byte(err.Error())})
				break
			}
		}
	}
drain:
	// Every accepted submission still owes this connection a response frame;
	// the conn stays open for writes (only the read side was deadlined).
	outstanding.Wait()
}

func bytesToSymbols(b []byte) []alphabet.Symbol {
	if len(b) == 0 {
		return nil
	}
	out := make([]alphabet.Symbol, len(b))
	for i, v := range b {
		out[i] = alphabet.Symbol(v)
	}
	return out
}
