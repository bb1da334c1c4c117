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
// Each connection has one reply writer: replies that become ready while a
// write is in flight leave together in the next write, and a client that
// stops reading loses its connection (see maxReplyBacklog), never a shard.
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
// handlers wait for their outstanding submissions before exiting. A client
// that does not read its replies gets shutdownWriteGrace to do so before its
// writes fail, so Shutdown returns even with a stalled reader connected.
func (t *TCPServer) Shutdown() {
	if !t.closed.CompareAndSwap(false, true) {
		t.wg.Wait()
		return
	}
	t.ln.Close()
	t.mu.Lock()
	now := time.Now()
	for conn := range t.conns {
		conn.SetReadDeadline(now)                          //nolint:errcheck // best-effort kick
		conn.SetWriteDeadline(now.Add(shutdownWriteGrace)) //nolint:errcheck // bounds a stalled reader
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// handle runs one connection: a single read loop submits frames, and one
// reply writer owns the socket's write side. Shard workers and the read loop
// only append encoded frames to the writer's pending buffer (see
// replyWriter), so neither ever blocks on the socket: a stalled tenant cannot
// head-of-line-block a connection's other tenants (Submit is non-blocking),
// and a client that stops reading cannot stall a shard.
func (t *TCPServer) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64*1024)
	max := t.srv.MaxFrameBytes()
	w := newReplyWriter(conn)
	var outstanding sync.WaitGroup
	var buf []byte
	for {
		f, next, err := readFrame(r, max, buf)
		buf = next
		if err != nil {
			var nerr net.Error
			switch {
			case err == io.EOF:
				// Clean close at a frame boundary.
			case errors.As(err, &nerr) && nerr.Timeout():
				// Shutdown kicked the read deadline; drain what we have.
			default:
				w.frame(Frame{Type: FrameError, Body: []byte(err.Error())})
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
			w.frame(Frame{Type: FrameError, Tenant: f.Tenant, Body: []byte("serve: unexpected client frame type")})
			goto drain
		}

		{
			tenant := f.Tenant
			syms := bytesToSymbols(f.Body) // copies; buf is reused by the next frame
			outstanding.Add(1)
			err := t.srv.Submit(tenant, syms, closeAfter, func(res Result) {
				defer outstanding.Done()
				if res.Err != nil {
					w.frame(Frame{Type: FrameError, Tenant: tenant, Body: []byte(res.Err.Error())})
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
				w.scores(typ, tenant, len(syms), res.Alarms, responses)
			})
			if err != nil {
				outstanding.Done()
				if errors.Is(err, ErrBusy) || errors.Is(err, ErrDraining) {
					w.frame(Frame{Type: FrameBusy, Tenant: tenant, Body: []byte(err.Error())})
					continue
				}
				w.frame(Frame{Type: FrameError, Tenant: tenant, Body: []byte(err.Error())})
				break
			}
		}
	}
drain:
	// Every accepted submission still owes this connection a response frame;
	// the conn stays open for writes (only the read side was deadlined).
	outstanding.Wait()
	w.close()
}

// maxReplyBacklog bounds the encoded replies a connection may hold pending
// while its reply writer is blocked on the socket. A client that pipelines
// frames and never reads fills its socket buffers and then this backlog; on
// overflow the connection is closed and its later replies are dropped
// (their batches are still scored). A client that reads keeps its backlog
// near one burst. A single reply larger than the bound is still queued, so
// the bound holds to within one frame.
const maxReplyBacklog = 1 << 20

// shutdownWriteGrace is how long Shutdown lets a connection's reply writer
// deliver its backlog before the socket's write deadline fails the write.
const shutdownWriteGrace = 5 * time.Second

// replyWriter is one connection's write side. Producers (shard workers,
// the read loop) append encoded frames to pending under mu and wake the
// writer goroutine through a one-slot channel; the writer swaps pending for
// spare and hands everything that became ready to the socket in one Write.
// Frames leave in append order, which keeps per-tenant reply order.
type replyWriter struct {
	conn net.Conn
	wake chan struct{}
	done chan struct{}

	mu      sync.Mutex
	pending []byte // frames not yet handed to the socket
	spare   []byte // the buffer of the last Write, reused as the next pending
	body    []byte // scratch for a Scores body, reused under mu
	broken  bool   // backlog overflowed or a write failed: drop replies
}

func newReplyWriter(conn net.Conn) *replyWriter {
	w := &replyWriter{conn: conn, wake: make(chan struct{}, 1), done: make(chan struct{})}
	go w.run()
	return w
}

func (w *replyWriter) run() {
	defer close(w.done)
	for range w.wake {
		w.mu.Lock()
		if len(w.pending) == 0 { // an earlier write took this wake's frames
			w.mu.Unlock()
			continue
		}
		out := w.pending
		w.pending = w.spare[:0]
		w.mu.Unlock()
		_, err := w.conn.Write(out)
		w.mu.Lock()
		w.spare = out[:0]
		if err != nil {
			w.breakLocked()
		}
		w.mu.Unlock()
	}
}

// breakLocked drops the backlog and closes the socket, which also ends the
// connection's read loop. w.mu must be held; closing a net.Conn does not block.
func (w *replyWriter) breakLocked() {
	if !w.broken {
		w.broken = true
		w.pending = nil
		w.conn.Close() //nolint:errcheck // the connection is being abandoned
	}
}

// frame queues f for the socket.
func (w *replyWriter) frame(f Frame) {
	w.mu.Lock()
	if w.admitLocked() {
		w.pending = AppendFrame(w.pending, f)
	}
	w.mu.Unlock()
	w.signal()
}

// scores queues a Scores (or Closed) reply.
func (w *replyWriter) scores(typ uint8, tenant string, accepted, alarms int, responses []float64) {
	w.mu.Lock()
	if w.admitLocked() {
		w.body = AppendScoresBody(w.body[:0], accepted, alarms, responses)
		w.pending = AppendFrame(w.pending, Frame{Type: typ, Tenant: tenant, Body: w.body})
	}
	w.mu.Unlock()
	w.signal()
}

// admitLocked reports whether another frame may be queued, breaking the
// connection when the backlog is full.
func (w *replyWriter) admitLocked() bool {
	if len(w.pending) >= maxReplyBacklog {
		w.breakLocked()
	}
	return !w.broken
}

func (w *replyWriter) signal() {
	select {
	case w.wake <- struct{}{}:
	default: // a wake is already pending; the writer will see this frame
	}
}

// close waits for the writer to hand the backlog to the socket. No frame
// may be queued after close is called.
func (w *replyWriter) close() {
	close(w.wake)
	<-w.done
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
