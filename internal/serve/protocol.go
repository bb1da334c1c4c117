// Package serve implements a multi-tenant streaming detection service:
// thousands of concurrent symbol streams, each scored by its own per-stream
// state over trained detectors that all tenants share read-only, routed
// across worker shards with bounded queues and explicit backpressure. Two transports share one submission path — NDJSON
// over HTTP for debuggability, and a compact length-prefixed TCP framing for
// throughput.
package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

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
	f, _, err := readFrame(r, max, nil)
	return f, err
}

// readFrame is ReadFrame into buf, grown as needed and returned for the
// next call. The returned Frame's Body aliases buf, so it is valid only
// until buf is reused; Tenant is a copy.
func readFrame(r io.Reader, max int, buf []byte) (Frame, []byte, error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, err
	}
	payloadLen := int(binary.BigEndian.Uint32(buf))
	if payloadLen < frameHeaderLen {
		return Frame{}, buf, fmt.Errorf("%w: payload length %d below header", ErrBadFrame, payloadLen)
	}
	if payloadLen > max {
		return Frame{}, buf, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrOversizedFrame, payloadLen, max)
	}
	buf = slices.Grow(buf, payloadLen)[:4+payloadLen]
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	f, _, err := DecodeFrame(buf, max)
	return f, buf, err
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
// belongs to the server, which knows the trained model. encoding/json decodes
// the object (keys, case-folding, escapes, duplicate and unknown fields);
// the symbols array decodes through symbolList, with no reflection per
// symbol.
func ParsePushRequest(line []byte) (PushRequest, error) {
	var wire struct {
		Tenant  string     `json:"tenant"`
		Symbols symbolList `json:"symbols"`
		Close   bool       `json:"close"`
		Quiet   bool       `json:"quiet"`
	}
	if err := json.Unmarshal(line, &wire); err != nil {
		return PushRequest{}, fmt.Errorf("serve: bad request line: %w", err)
	}
	req := PushRequest{Tenant: wire.Tenant, Symbols: wire.Symbols, Close: wire.Close, Quiet: wire.Quiet}
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

// errSymbols rejects a symbols value that is not an array of integers.
var errSymbols = errors.New("serve: symbols must be an array of integers")

// symbolList decodes a JSON array of integers straight from its bytes, with
// encoding/json's []int semantics: null as the whole value is a nil slice,
// [] is an empty one, a null element leaves that element as it was, and a
// repeated key decodes over the storage of the previous slice. Anything but
// an integer or null element is an error.
type symbolList []int

func (s *symbolList) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*s = nil
		return nil
	}
	if len(b) == 0 || b[0] != '[' {
		return errSymbols
	}
	i := skipSpace(b, 1)
	if i < len(b) && b[i] == ']' {
		*s = symbolList{}
		return nil
	}
	// Every element after the first follows its own comma, so the comma
	// count bounds the elements and the slice is sized once.
	buf := (*s)[:cap(*s)]
	if n := bytes.Count(b, []byte{','}) + 1; n > len(buf) {
		buf = append(make([]int, 0, n), buf...)[:n]
	}
	for k := 0; ; {
		if bytes.HasPrefix(b[i:], []byte("null")) {
			i += 4
		} else {
			var ok bool
			if buf[k], i, ok = parseInt(b, i); !ok {
				return errSymbols
			}
		}
		k++
		if i = skipSpace(b, i); i < len(b) && b[i] == ']' {
			*s = buf[:k]
			return nil
		}
		if i >= len(b) || b[i] != ',' {
			return errSymbols
		}
		i = skipSpace(b, i+1)
	}
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// parseInt reads the digits of a JSON integer at b[i:] and returns its
// value with the index after them. It fails on no digits or on a value
// beyond int, which encoding/json rejects for an int too; a fraction or an
// exponent stops the digits, and the caller rejects it as a bad separator.
func parseInt(b []byte, i int) (int, int, bool) {
	neg := i < len(b) && b[i] == '-'
	limit := uint64(math.MaxInt)
	if neg {
		i++
		limit++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if u > (limit-d)/10 {
			return 0, 0, false
		}
		u = u*10 + d
	}
	if neg {
		u = -u
	}
	return int(u), i, i > start
}

// AppendPushResponse appends resp as one NDJSON line to dst: exactly the
// bytes json.Marshal(resp) writes, then '\n'. It is the NDJSON counterpart of
// AppendScoresBody. JSON has no NaN or Inf, so a non-finite response is an
// error, and dst is then returned unchanged.
func AppendPushResponse(dst []byte, resp PushResponse) ([]byte, error) {
	for i, r := range resp.Responses {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return dst, fmt.Errorf("serve: response %d is %v, which JSON cannot encode", i, r)
		}
	}
	dst = append(dst, `{"tenant":`...)
	dst = appendJSONString(dst, resp.Tenant)
	dst = append(dst, `,"accepted":`...)
	dst = strconv.AppendInt(dst, int64(resp.Accepted), 10)
	if resp.Alarms != 0 {
		dst = append(dst, `,"alarms":`...)
		dst = strconv.AppendInt(dst, int64(resp.Alarms), 10)
	}
	if len(resp.Responses) > 0 {
		dst = append(dst, `,"responses":[`...)
		for i, r := range resp.Responses {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(dst, r)
		}
		dst = append(dst, ']')
	}
	if resp.Closed {
		dst = append(dst, `,"closed":true`...)
	}
	if resp.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, resp.Error)
	}
	return append(dst, "}\n"...), nil
}

// appendJSONString appends s quoted and escaped as json.Marshal writes it.
func appendJSONString(dst []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(dst, q...)
}

// appendJSONFloat appends a finite f as json.Marshal writes a float64: the
// shortest round-trip form, in exponent form below 1e-6 and from 1e21 up.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json writes e-7 where strconv writes e-07.
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
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
