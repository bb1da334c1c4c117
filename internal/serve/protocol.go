// Package serve implements a multi-tenant streaming detection service:
// thousands of concurrent symbol streams, each scored by its own per-stream
// state over trained detectors that all tenants share read-only, routed
// across worker shards with bounded queues and explicit backpressure. Two transports share one submission path — NDJSON
// over HTTP for debuggability, and a compact length-prefixed TCP framing for
// throughput.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"adiv/internal/alphabet"
)

// Frame types. A client sends Events (score and return responses),
// EventsQuiet (score, ack counts only — the load-generator fast path), or
// Close (retire the tenant's stream state to the free list). The server answers
// with Scores, Closed, Busy (shard queue full — retry later), or Error
// (protocol violation — the connection is dropped).
const (
	FrameEvents      = 1
	FrameScores      = 2
	FrameBusy        = 3
	FrameError       = 4
	FrameClose       = 5
	FrameClosed      = 6
	FrameEventsQuiet = 7
)

// frameMagic guards against foreign traffic hitting the TCP port: every
// frame payload leads with it, so an HTTP request or TLS hello is rejected
// on the first frame instead of being misparsed as a gigantic length.
const frameMagic = 0xAD5E

// frameVersion is the wire version; bump on incompatible layout changes.
const frameVersion = 1

// frameHeaderLen is the fixed payload header: magic (2) + version (1) +
// type (1) + tenant length (1).
const frameHeaderLen = 5

// DefaultMaxFrameBytes bounds a single frame's payload. At one byte per
// symbol this allows ~64k events per batch, far above the useful batch size;
// anything larger is a protocol error, not a buffering request.
const DefaultMaxFrameBytes = 1 << 16

// Frame decode errors. ErrShortFrame means the buffer holds a valid prefix
// of a frame — read more bytes and retry; every other error is terminal for
// the connection.
var (
	ErrShortFrame     = errors.New("serve: short frame")
	ErrOversizedFrame = errors.New("serve: oversized frame")
	ErrBadMagic       = errors.New("serve: bad frame magic")
	ErrBadVersion     = errors.New("serve: unsupported frame version")
	ErrBadFrameType   = errors.New("serve: unknown frame type")
	ErrBadFrame       = errors.New("serve: malformed frame")
)

// Frame is one decoded wire frame. Body holds the type-specific payload:
// one byte per symbol for Events/EventsQuiet, a scores block (see
// AppendScoresBody) for Scores, and human-readable text for Busy/Error.
type Frame struct {
	Type   uint8
	Tenant string
	Body   []byte
}

// AppendFrame appends f's canonical wire encoding to dst and returns the
// extended slice. It panics if the tenant exceeds 255 bytes or the frame
// would exceed the uint32 length prefix — both are programmer errors, not
// runtime conditions.
func AppendFrame(dst []byte, f Frame) []byte {
	if len(f.Tenant) > 255 {
		panic("serve: tenant longer than 255 bytes")
	}
	payload := frameHeaderLen + len(f.Tenant) + len(f.Body)
	if int64(payload) > math.MaxUint32 {
		panic("serve: frame exceeds uint32 length")
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(payload))
	dst = binary.BigEndian.AppendUint16(dst, frameMagic)
	dst = append(dst, frameVersion, f.Type, uint8(len(f.Tenant)))
	dst = append(dst, f.Tenant...)
	dst = append(dst, f.Body...)
	return dst
}

// DecodeFrame decodes one frame from the front of b. max bounds the payload
// length (DefaultMaxFrameBytes when max <= 0). On success it returns the
// frame and the total bytes consumed (length prefix included); the frame's
// Tenant and Body alias b. ErrShortFrame means b is a valid-so-far prefix;
// any other error means the stream is unrecoverable. A successfully decoded
// frame re-encodes via AppendFrame to exactly the consumed bytes.
func DecodeFrame(b []byte, max int) (Frame, int, error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	if len(b) < 4 {
		return Frame{}, 0, ErrShortFrame
	}
	payloadLen := int(binary.BigEndian.Uint32(b))
	if payloadLen < frameHeaderLen {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d below header", ErrBadFrame, payloadLen)
	}
	if payloadLen > max {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrOversizedFrame, payloadLen, max)
	}
	if len(b) < 4+payloadLen {
		return Frame{}, 0, ErrShortFrame
	}
	payload := b[4 : 4+payloadLen]
	if magic := binary.BigEndian.Uint16(payload); magic != frameMagic {
		return Frame{}, 0, fmt.Errorf("%w: 0x%04X", ErrBadMagic, magic)
	}
	if payload[2] != frameVersion {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrBadVersion, payload[2])
	}
	typ := payload[3]
	switch typ {
	case FrameEvents, FrameScores, FrameBusy, FrameError, FrameClose, FrameClosed, FrameEventsQuiet:
	default:
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrBadFrameType, typ)
	}
	tenantLen := int(payload[4])
	if frameHeaderLen+tenantLen > payloadLen {
		return Frame{}, 0, fmt.Errorf("%w: tenant length %d overruns payload", ErrBadFrame, tenantLen)
	}
	f := Frame{
		Type:   typ,
		Tenant: string(payload[frameHeaderLen : frameHeaderLen+tenantLen]),
		Body:   payload[frameHeaderLen+tenantLen:],
	}
	return f, 4 + payloadLen, nil
}

// ReadFrame reads exactly one frame from r, enforcing max (see DecodeFrame).
// It blocks until a full frame, an error, or EOF; io.EOF at a frame boundary
// is returned as-is so callers can distinguish a clean close from a torn
// frame (io.ErrUnexpectedEOF).
func ReadFrame(r io.Reader, max int) (Frame, error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return Frame{}, err
	}
	payloadLen := int(binary.BigEndian.Uint32(prefix[:]))
	if payloadLen < frameHeaderLen {
		return Frame{}, fmt.Errorf("%w: payload length %d below header", ErrBadFrame, payloadLen)
	}
	if payloadLen > max {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrOversizedFrame, payloadLen, max)
	}
	buf := make([]byte, 4+payloadLen)
	copy(buf, prefix[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, _, err := DecodeFrame(buf, max)
	return f, err
}

// AppendScoresBody appends the FrameScores payload: accepted and alarm
// counts, then the per-event responses as little-endian float64 bits (bits,
// not text, so the scores round-trip bit-identically to the serial scorer).
func AppendScoresBody(dst []byte, accepted, alarms int, responses []float64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(accepted))
	dst = binary.BigEndian.AppendUint32(dst, uint32(alarms))
	for _, r := range responses {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r))
	}
	return dst
}

// ParseScoresBody decodes an AppendScoresBody payload.
func ParseScoresBody(body []byte) (accepted, alarms int, responses []float64, err error) {
	if len(body) < 8 || (len(body)-8)%8 != 0 {
		return 0, 0, nil, fmt.Errorf("%w: scores body length %d", ErrBadFrame, len(body))
	}
	accepted = int(binary.BigEndian.Uint32(body))
	alarms = int(binary.BigEndian.Uint32(body[4:]))
	rest := body[8:]
	if n := len(rest) / 8; n > 0 {
		responses = make([]float64, n)
		for i := range responses {
			responses[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
	}
	return accepted, alarms, responses, nil
}

// PushRequest is one NDJSON request line on POST /v1/push: a tenant, a batch
// of symbols to score, and optional flags. Quiet suppresses the per-event
// responses in the reply (counts only); Close retires the tenant's detector
// after the batch.
type PushRequest struct {
	Tenant  string `json:"tenant"`
	Symbols []int  `json:"symbols,omitempty"`
	Close   bool   `json:"close,omitempty"`
	Quiet   bool   `json:"quiet,omitempty"`
}

// PushResponse is the NDJSON reply line matching one PushRequest.
type PushResponse struct {
	Tenant    string    `json:"tenant"`
	Accepted  int       `json:"accepted"`
	Alarms    int       `json:"alarms,omitempty"`
	Responses []float64 `json:"responses,omitempty"`
	Closed    bool      `json:"closed,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// ParsePushRequest parses and validates one NDJSON request line. Symbols are
// range-checked against the wire byte (0..255) here; the alphabet-size check
// belongs to the server, which knows the trained model.
func ParsePushRequest(line []byte) (PushRequest, error) {
	var req PushRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return PushRequest{}, fmt.Errorf("serve: bad request line: %w", err)
	}
	if req.Tenant == "" {
		return PushRequest{}, errors.New("serve: request missing tenant")
	}
	if len(req.Tenant) > 255 {
		return PushRequest{}, errors.New("serve: tenant longer than 255 bytes")
	}
	for i, s := range req.Symbols {
		if s < 0 || s > 255 {
			return PushRequest{}, fmt.Errorf("serve: symbol %d out of byte range: %d", i, s)
		}
	}
	return req, nil
}

// SymbolsOf converts a validated request's symbols to the alphabet type.
func SymbolsOf(req PushRequest) []alphabet.Symbol {
	if len(req.Symbols) == 0 {
		return nil
	}
	out := make([]alphabet.Symbol, len(req.Symbols))
	for i, s := range req.Symbols {
		out[i] = alphabet.Symbol(s)
	}
	return out
}
