package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"adiv"
	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/serve"
)

// replayBudget is the minimum time each replay measurement runs; it
// repeats whole passes over the workload's inputs until the budget is spent.
const replayBudget = 150 * time.Millisecond

// replay runs pass until replayBudget has elapsed (at least twice) and
// returns the median time of one pass.
func replay(pass func() error) (time.Duration, error) {
	var times []float64
	for start := time.Now(); len(times) < 2 || time.Since(start) < replayBudget; {
		t0 := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	return time.Duration(median(times)), nil
}

// decodeNsPerEvent replays the server's decode of the workload's exact
// request bytes: ReadFrame plus the symbol copy for TCP, ParsePushRequest
// plus SymbolsOf for every NDJSON line.
func decodeNsPerEvent(in *serveInputs) (float64, error) {
	var wire []byte
	events, frames := 0, 0
	for i := range in.streams {
		events += len(in.streams[i])
		if in.w.transport == "tcp" {
			for _, f := range in.frames[i] {
				wire = append(wire, f...)
				frames++
			}
		} else {
			wire = in.requestBody(wire, sessionID(int64(i)), i)
		}
	}
	var sink int
	pass := func() error {
		if in.w.transport == "tcp" {
			r := bufio.NewReaderSize(bytes.NewReader(wire), 64*1024)
			for n := 0; n < frames; n++ {
				f, err := serve.ReadFrame(r, 0)
				if err != nil {
					return err
				}
				sink += len(bytesToSymbols(f.Body))
			}
			return nil
		}
		sc := bufio.NewScanner(bytes.NewReader(wire))
		for sc.Scan() {
			req, err := serve.ParsePushRequest(bytes.TrimSpace(sc.Bytes()))
			if err != nil {
				return err
			}
			sink += len(serve.SymbolsOf(req))
		}
		return sc.Err()
	}
	d, err := replay(pass)
	if err != nil {
		return 0, fmt.Errorf("decode replay: %w", err)
	}
	return float64(d.Nanoseconds()) / float64(events), nil
}

// bytesToSymbols is the TCP transport's per-frame symbol copy.
func bytesToSymbols(b []byte) []alphabet.Symbol {
	out := make([]alphabet.Symbol, len(b))
	for i, v := range b {
		out[i] = alphabet.Symbol(v)
	}
	return out
}

// encodeNsPerBatch replays the server's reply encoding of every batch with
// its reference outcome: AppendScoresBody plus AppendFrame for TCP, one
// json.Marshal(PushResponse) per NDJSON line.
func encodeNsPerBatch(in *serveInputs) (float64, error) {
	batches := 0
	for i := range in.batches {
		batches += len(in.batches[i])
	}
	var sink int
	pass := func() error {
		for i, bs := range in.batches {
			for k := range bs {
				ref, last := in.ref[i][k], k == len(bs)-1
				if in.w.transport == "tcp" {
					body := serve.AppendScoresBody(nil, len(bs[k]), ref.alarms, in.wireResponses(ref))
					sink += len(serve.AppendFrame(nil, serve.Frame{Type: serve.FrameScores, Tenant: tenantID(i), Body: body}))
					continue
				}
				line, err := json.Marshal(serve.PushResponse{
					Tenant: sessionID(int64(i)), Accepted: len(bs[k]), Alarms: ref.alarms,
					Responses: ref.responses, Closed: last,
				})
				if err != nil {
					return err
				}
				sink += len(line)
			}
		}
		return nil
	}
	d, err := replay(pass)
	if err != nil {
		return 0, fmt.Errorf("encode replay: %w", err)
	}
	return float64(d.Nanoseconds()) / float64(batches), nil
}

// detectorNsPerWindow replays the tenant detector's streaming fast path,
// detector.AsWindowByteScorer(det).ScoreWindowBytes, over every window of
// the workload's streams.
func detectorNsPerWindow(in *serveInputs, corpus *adiv.SequenceCorpus) (float64, error) {
	det, err := adiv.NewDetector(in.w.detector, in.w.window)
	if err != nil {
		return 0, err
	}
	if err := adiv.TrainWithCorpus(det, corpus); err != nil {
		return 0, err
	}
	ws, ok := detector.AsWindowByteScorer(det)
	if !ok {
		return 0, fmt.Errorf("detector %s has no window byte scorer", det.Name())
	}
	extent := det.Extent()
	var encoded [][]byte
	windows := 0
	for _, s := range in.streams {
		encoded = append(encoded, s.Bytes())
		windows += len(s) - extent + 1
	}
	var sink float64
	d, err := replay(func() error {
		for _, b := range encoded {
			for i := 0; i+extent <= len(b); i++ {
				r, err := ws.ScoreWindowBytes(b[i : i+extent])
				if err != nil {
					return err
				}
				sink += r
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("detector replay: %w", err)
	}
	return float64(d.Nanoseconds()) / float64(windows), nil
}

// breakdown splits one operation's client round trip into the layers it
// crossed. Residual is whatever the layers do not explain — sockets,
// syscalls, wake-ups, client work — and is reported, never hidden: it may
// be negative when replayed layer costs overestimate the live ones.
type breakdown struct {
	decode, queue, score, encode, residual float64 // µs
}

func decompose(rtt, decode, queue, score, encode float64) breakdown {
	return breakdown{
		decode: decode, queue: queue, score: score, encode: encode,
		residual: rtt - decode - queue - score - encode,
	}
}

// matchOps pairs every client operation with the server batches it carried,
// per tenant in order, and returns the measured operations with their
// PushBatch records. ok is false when the two logs disagree.
func matchOps(ops []clientRec, server map[string][]serverRec) (pairs []opSpans, ok bool) {
	next := make(map[string]int)
	for _, op := range ops {
		recs := server[op.tenant]
		j := next[op.tenant]
		if j+op.batches > len(recs) {
			return nil, false
		}
		next[op.tenant] = j + op.batches
		if op.measured {
			pairs = append(pairs, opSpans{op: op, batches: recs[j : j+op.batches]})
		}
	}
	for tenant, recs := range server {
		if next[tenant] != len(recs) {
			return nil, false
		}
	}
	return pairs, true
}

type opSpans struct {
	op      clientRec
	batches []serverRec
}

// scoreMicros is the operation's summed PushBatch time.
func (o opSpans) scoreMicros() float64 {
	total := time.Duration(0)
	for _, b := range o.batches {
		total += b.end.Sub(b.start)
	}
	return float64(total.Nanoseconds()) / 1e3
}

// queueWaits returns, per measured operation, the time from its Submit call
// to its PushBatch start, in µs.
func queueWaits(pairs []opSpans) []float64 {
	out := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, float64(p.batches[0].start.Sub(p.op.t0).Nanoseconds())/1e3)
	}
	return out
}
