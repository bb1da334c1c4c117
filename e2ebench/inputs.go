package main

import (
	"encoding/json"
	"fmt"

	"adiv"
	"adiv/internal/gen"
	"adiv/internal/inject"
	"adiv/internal/online"
	"adiv/internal/seq"
	"adiv/internal/serve"
)

// serveInputs are a serve workload's generated streams, their wire
// encodings, and the serial references every reply is checked against.
type serveInputs struct {
	w        workload
	seed     uint64
	streams  []seq.Stream
	injectAt []int                // position of the injected MFS in each stream
	batches  [][]seq.Stream       // batches[i][k]: the k-th batch of stream i (a view)
	frames   [][][]byte           // tcp: the exact frame bytes of batches[i][k] for tenant i
	lines    [][][]byte           // http: the JSON symbol array of batches[i][k]
	ref      [][]batchRef         // serial online.Alarmer outcome of batches[i][k] in a fresh session
	cont     [][]batchRef         // tcp: the same for a pass that continues the previous one
	corpus   *adiv.SequenceCorpus // the training corpus, kept for the load phases' deployments
}

// batchRef is what a serial Alarmer produces for one batch.
type batchRef struct {
	alarms    int
	responses []float64
}

// outcome is the reference for batch k of stream i; later selects a pass
// that continues the tenant's previous pass over its stream.
func (in *serveInputs) outcome(i, k int, later bool) batchRef {
	if later {
		return in.cont[i][k]
	}
	return in.ref[i][k]
}

// wireResponses is what a reply carries of a batch's responses: none for
// quiet frames.
func (in *serveInputs) wireResponses(ref batchRef) []float64 {
	if in.w.quiet {
		return nil
	}
	return ref.responses
}

// trainingConfig is the generator configuration of a serve workload's
// training corpus and streams: the paper-faithful one-million-symbol
// training stream cmd/serve deploys by default, seeded from the benchmark
// seed.
func trainingConfig(seed uint64) gen.Config {
	cfg := gen.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// genServeInputs builds every stream of a serve workload from gen with one
// canonical minimal foreign sequence injected at a seed-derived position,
// as serveload does. The same seed gives byte-identical inputs.
func genServeInputs(w workload, seed uint64) (*serveInputs, error) {
	g, err := gen.New(trainingConfig(seed))
	if err != nil {
		return nil, err
	}
	mfs, err := gen.CanonicalMFS(injectSize)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{w: w, seed: seed}
	for i := 0; i < w.streams; i++ {
		bg := g.Noisy(w.streamLen-injectSize, uint64(i))
		pos := int(splitmix(seed^uint64(i)*0x9E3779B97F4A7C15) % uint64(len(bg)+1))
		p, err := inject.At(bg, mfs, pos)
		if err != nil {
			return nil, err
		}
		in.streams = append(in.streams, p.Stream)
		in.injectAt = append(in.injectAt, pos)
		var bs []seq.Stream
		var frames, lines [][]byte
		nb := w.batchesPerStream()
		for k := 0; k < nb; k++ {
			end := min((k+1)*w.batch, len(p.Stream))
			b := p.Stream[k*w.batch : end]
			bs = append(bs, b)
			if w.transport == "tcp" {
				typ := uint8(serve.FrameEvents)
				if w.quiet {
					typ = serve.FrameEventsQuiet
				}
				frames = append(frames, serve.AppendFrame(nil, serve.Frame{Type: typ, Tenant: tenantID(i), Body: b.Bytes()}))
			} else {
				ints := make([]int, len(b))
				for j, s := range b {
					ints[j] = int(s)
				}
				line, err := json.Marshal(ints)
				if err != nil {
					return nil, err
				}
				lines = append(lines, line)
			}
		}
		in.batches = append(in.batches, bs)
		in.frames = append(in.frames, frames)
		in.lines = append(in.lines, lines)
	}
	return in, nil
}

func tenantID(i int) string { return fmt.Sprintf("t%02d", i) }

// splitmix is the SplitMix64 finalizer, used to derive positions from the
// seed.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// computeRefs scores every stream serially with a fresh online.Alarmer over
// a detector trained on corpus, batch by batch: the outcome a correct server
// must reproduce exactly. TCP tenants are long-lived and replay their
// stream pass after pass without closing, so the Alarmer then scores a
// second pass: every later pass starts from the same window history.
func (in *serveInputs) computeRefs(corpus *adiv.SequenceCorpus) error {
	in.corpus = corpus
	in.ref = make([][]batchRef, len(in.batches))
	in.cont = make([][]batchRef, len(in.batches))
	passes := 1
	if in.w.transport == "tcp" {
		passes = 2
	}
	for i, bs := range in.batches {
		det, err := adiv.NewDetector(in.w.detector, in.w.window)
		if err != nil {
			return err
		}
		if err := adiv.TrainWithCorpus(det, corpus); err != nil {
			return err
		}
		a, err := online.NewAlarmer(det, threshold)
		if err != nil {
			return err
		}
		for pass := 0; pass < passes; pass++ {
			for _, b := range bs {
				var ref batchRef
				for _, sym := range b {
					r, ready, _, raised, err := a.PushScored(sym)
					if err != nil {
						return err
					}
					if ready {
						ref.responses = append(ref.responses, r)
					}
					if raised {
						ref.alarms++
					}
				}
				if pass == 0 {
					in.ref[i] = append(in.ref[i], ref)
				} else {
					in.cont[i] = append(in.cont[i], ref)
				}
			}
		}
	}
	return nil
}

// injectionBatch is the batch holding the last symbol of stream i's
// injected MFS: the batch whose window over the whole MFS completes.
func (in *serveInputs) injectionBatch(i int) int {
	return (in.injectAt[i] + injectSize - 1) / in.w.batch
}

// events returns the number of symbols in batch k of stream i.
func (in *serveInputs) events(i, k int) int { return len(in.batches[i][k]) }
