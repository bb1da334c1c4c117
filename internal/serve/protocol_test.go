package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameEvents, Tenant: "t0", Body: []byte{0, 1, 2, 3}},
		{Type: FrameEventsQuiet, Tenant: "a-much-longer-tenant-name", Body: bytes.Repeat([]byte{7}, 1000)},
		{Type: FrameScores, Tenant: "t1", Body: AppendScoresBody(nil, 4, 1, []float64{0, 0.5, 1})},
		{Type: FrameBusy, Tenant: "t2", Body: []byte("busy")},
		{Type: FrameError, Body: []byte("nope")},
		{Type: FrameClose, Tenant: "t3"},
		{Type: FrameClosed, Tenant: "t3", Body: AppendScoresBody(nil, 0, 0, nil)},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}
	// Decode from the concatenated buffer.
	rest := wire
	for i, want := range frames {
		got, n, err := DecodeFrame(rest, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Tenant != want.Tenant || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		if !bytes.Equal(AppendFrame(nil, got), rest[:n]) {
			t.Fatalf("frame %d: re-encode is not canonical", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	// And via the io path.
	r := bytes.NewReader(wire)
	for i, want := range frames {
		got, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Tenant != want.Tenant || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("ReadFrame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
	// And into one reused buffer: each Body is valid until the next read,
	// and no Tenant aliases the buffer.
	r = bytes.NewReader(wire)
	var buf []byte
	var tenants []string
	for i, want := range frames {
		var got Frame
		var err error
		if got, buf, err = readFrame(r, 0, buf); err != nil {
			t.Fatalf("readFrame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Tenant != want.Tenant || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("readFrame %d: got %+v want %+v", i, got, want)
		}
		tenants = append(tenants, got.Tenant)
	}
	for i, want := range frames {
		if tenants[i] != want.Tenant {
			t.Fatalf("frame %d tenant %q changed to %q by later reads", i, want.Tenant, tenants[i])
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	valid := AppendFrame(nil, Frame{Type: FrameEvents, Tenant: "t", Body: []byte{1, 2}})
	cases := []struct {
		name string
		b    []byte
		max  int
		want error
	}{
		{"empty", nil, 0, ErrShortFrame},
		{"truncated prefix", valid[:3], 0, ErrShortFrame},
		{"truncated payload", valid[:len(valid)-1], 0, ErrShortFrame},
		{"oversized", valid, 4, ErrOversizedFrame},
		{"undersized length", []byte{0, 0, 0, 2, 0xAD, 0x5E}, 0, ErrBadFrame},
		{"foreign magic", []byte{0, 0, 0, 5, 0x12, 0x34, 1, 1, 0}, 0, ErrBadMagic},
		{"foreign magic (HTTP)", []byte("GET / HTTP/1.1\r\n\r\n"), 0, ErrOversizedFrame},
		{"bad version", mutate(valid, 6, 99), 0, ErrBadVersion},
		{"bad type", mutate(valid, 7, 200), 0, ErrBadFrameType},
		{"tenant overrun", mutate(valid, 8, 255), 0, ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeFrame(tc.b, tc.max)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// mutate copies b and sets b[i] = v.
func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

func TestDecodeFrameForeignLengthNotTrusted(t *testing.T) {
	// A foreign stream whose first 4 bytes happen to decode as a huge length
	// must be rejected as oversized, not buffered.
	b := []byte("\xff\xff\xff\xff garbage")
	if _, _, err := DecodeFrame(b, 0); !errors.Is(err, ErrOversizedFrame) {
		t.Fatalf("err = %v, want ErrOversizedFrame", err)
	}
	if _, err := ReadFrame(bytes.NewReader(b), 0); !errors.Is(err, ErrOversizedFrame) {
		t.Fatalf("ReadFrame err = %v, want ErrOversizedFrame", err)
	}
}

func TestReadFrameTornPayload(t *testing.T) {
	valid := AppendFrame(nil, Frame{Type: FrameEvents, Tenant: "t", Body: []byte{1, 2, 3}})
	_, err := ReadFrame(bytes.NewReader(valid[:len(valid)-2]), 0)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestScoresBodyRoundTrip(t *testing.T) {
	resp := []float64{0, 1, 0.25, math.Inf(1), math.SmallestNonzeroFloat64}
	body := AppendScoresBody(nil, 5, 2, resp)
	accepted, alarms, got, err := ParseScoresBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 5 || alarms != 2 {
		t.Fatalf("counts = (%d, %d), want (5, 2)", accepted, alarms)
	}
	if len(got) != len(resp) {
		t.Fatalf("%d responses, want %d", len(got), len(resp))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(resp[i]) {
			t.Fatalf("response %d: %v != %v", i, got[i], resp[i])
		}
	}
	if _, _, _, err := ParseScoresBody(body[:7]); err == nil {
		t.Fatal("short scores body accepted")
	}
	if _, _, _, err := ParseScoresBody(body[:len(body)-3]); err == nil {
		t.Fatal("ragged scores body accepted")
	}
}

func TestParsePushRequest(t *testing.T) {
	req, err := ParsePushRequest([]byte(`{"tenant":"t0","symbols":[0,1,7],"quiet":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Tenant != "t0" || len(req.Symbols) != 3 || !req.Quiet || req.Close {
		t.Fatalf("bad parse: %+v", req)
	}
	syms := SymbolsOf(req)
	if len(syms) != 3 || syms[2] != 7 {
		t.Fatalf("bad symbols: %v", syms)
	}
	for _, bad := range []string{
		``,
		`not json`,
		`{"symbols":[1]}`,                // missing tenant
		`{"tenant":"t","symbols":[-1]}`,  // negative symbol
		`{"tenant":"t","symbols":[256]}`, // beyond byte range
		`{"tenant":"` + string(bytes.Repeat([]byte{'x'}, 300)) + `"}`, // tenant too long
	} {
		if _, err := ParsePushRequest([]byte(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Type: FrameEvents, Tenant: "t0", Body: []byte{1, 2, 3}}))
	f.Add(AppendFrame(nil, Frame{Type: FrameScores, Tenant: "x", Body: AppendScoresBody(nil, 3, 1, []float64{0.5})}))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add([]byte{0, 0, 0, 5, 0xAD, 0x5E, 1, 1, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		frame, n, err := DecodeFrame(b, 0)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v consumed %d bytes", err, n)
			}
			return
		}
		if n < frameHeaderLen+4 || n > len(b) {
			t.Fatalf("consumed %d of %d", n, len(b))
		}
		// Accepted frames must re-encode canonically.
		if !bytes.Equal(AppendFrame(nil, frame), b[:n]) {
			t.Fatalf("round-trip mismatch for %d-byte frame", n)
		}
		// And survive the io path identically.
		got, err := ReadFrame(bytes.NewReader(b[:n]), 0)
		if err != nil {
			t.Fatalf("ReadFrame rejects what DecodeFrame accepted: %v", err)
		}
		if got.Type != frame.Type || got.Tenant != frame.Tenant || !bytes.Equal(got.Body, frame.Body) {
			t.Fatal("ReadFrame disagrees with DecodeFrame")
		}
	})
}

// FuzzNDJSONRequest holds ParsePushRequest to its reference: json.Unmarshal
// into PushRequest plus the tenant and symbol range rules. Acceptance and
// every decoded field must agree, nil versus empty Symbols included.
func FuzzNDJSONRequest(f *testing.F) {
	f.Add([]byte(`{"tenant":"t0","symbols":[0,1,2]}`))
	f.Add([]byte(`{"tenant":"t0","close":true}`))
	f.Add([]byte(`{"tenant":"","symbols":[300]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"tenant":"t","symbols":null}`))
	f.Add([]byte(`{"tenant":"t","symbols":[]}`))
	f.Add([]byte(`{"tenant":"t","symbols":[1,null,-0]}`))
	f.Add([]byte(`{"tenant":"t","symbols":[1.0]}`))
	f.Add([]byte(`{"tenant":"t","symbols":[1e2]}`))
	f.Add([]byte(`{"tenant":"t","symbols":["1"]}`))
	f.Add([]byte(`{"tenant":"t","symbols":[true,[1],{}]}`))
	f.Add([]byte(`{"tenant":"t","symbols":-1}`))
	f.Add([]byte(`{"tenant":"t","symbols":[99999999999999999999]}`))
	f.Add([]byte(`{"tenant":"t","SYMBOLS":[7],"Tenant":"u","QUIET":true}`))
	f.Add([]byte(`{"tenant":"t","symbols":[1,2,3],"symbols":[4],"symbols":[null,null,null]}`))
	f.Add([]byte(`{"tenant":"t","symbols":[5],"symbols":[]}`))
	f.Add([]byte(" { \"tenant\" : \"t\\u0041\" ,\n\"symbols\" :\t[ 1 ,\r2 ] , \"extra\":[1.5] } "))
	f.Fuzz(func(t *testing.T, line []byte) {
		var want PushRequest
		wantErr := json.Unmarshal(line, &want)
		if wantErr == nil && (want.Tenant == "" || len(want.Tenant) > 255) {
			wantErr = errors.New("tenant rule")
		}
		for _, s := range want.Symbols {
			if wantErr == nil && (s < 0 || s > 255) {
				wantErr = errors.New("range rule")
			}
		}
		req, err := ParsePushRequest(line)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParsePushRequest err = %v, reference err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("decoded %#v, reference %#v", req, want)
		}
		syms := SymbolsOf(req)
		if len(syms) != len(req.Symbols) {
			t.Fatalf("symbol conversion lost events: %d != %d", len(syms), len(req.Symbols))
		}
		for i, s := range req.Symbols {
			if int(syms[i]) != s {
				t.Fatalf("symbol %d mangled: %d -> %d", i, s, syms[i])
			}
		}
	})
}

// FuzzPushResponse holds AppendPushResponse to json.Marshal: for finite
// responses it writes the same bytes plus '\n'; a non-finite one is an error
// that leaves dst as it was. Responses come in as little-endian float64 bits.
func FuzzPushResponse(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add("t0", "", 3, 0, false, bits(0, 0.5, 1))
	f.Add("<a&b>", "bad \"line\"\n\t\x01\x7f", 0, 0, true, []byte(nil))
	f.Add("\xff\xfe\u2028\u2029", "\b\f\\", -1, 2, false, bits(math.Copysign(0, -1), 1e-7, 1e21))
	f.Add("t", "e", 1<<40, -7, true, bits(9.999999999999999e-7, 1e-6, 999999999999999900000, 5e-324, math.MaxFloat64))
	f.Add("t", "", 1, 0, false, bits(0.6046602879796196, -123456.789, 1.2345678901234567e-300))
	f.Add("t", "", 1, 0, false, bits(math.NaN()))
	f.Add("t", "", 1, 0, false, bits(1, math.Inf(-1)))
	f.Fuzz(func(t *testing.T, tenant, msg string, accepted, alarms int, closed bool, raw []byte) {
		resp := PushResponse{Tenant: tenant, Accepted: accepted, Alarms: alarms, Closed: closed, Error: msg}
		finite := true
		for i := 0; i+8 <= len(raw); i += 8 {
			r := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
			finite = finite && !math.IsNaN(r) && !math.IsInf(r, 0)
			resp.Responses = append(resp.Responses, r)
		}
		prefix := []byte("prev\n")
		got, err := AppendPushResponse(prefix, resp)
		if !finite {
			if err == nil {
				t.Fatalf("non-finite responses encoded: %q", got)
			}
			if !bytes.Equal(got, prefix) {
				t.Fatalf("failed encode changed dst: %q", got)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(append([]byte("prev\n"), want...), '\n'); !bytes.Equal(got, want) {
			t.Fatalf("encoded\n%q\njson.Marshal\n%q", got, want)
		}
	})
}
