package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"adiv"
	"adiv/internal/anomaly"
	"adiv/internal/gen"
	"adiv/internal/inject"
	"adiv/internal/seq"
)

// report is a workload run's measured values plus notes for the human
// summary (sample counts, validity).
type report struct {
	values map[string]float64
	notes  []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// share is the given fraction of the run's --seconds budget.
func share(seconds, frac float64) time.Duration {
	return time.Duration(seconds * frac * float64(time.Second))
}

// withProcs runs fn under GOMAXPROCS n.
func withProcs(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// rounds is how many times an untraced serve run cycles through its
// phases. The host's speed drifts over seconds (it shares physical cores),
// so every phase samples the whole run rather than one stretch of it.
const rounds = 16

// runServe is the untraced run of a serve workload. Each round times
// set-ups, then runs the closed loop at N shards, the closed loop at one
// shard under GOMAXPROCS 1, and the open loop at the workload's fixed rate.
func runServe(w workload, seed uint64, seconds float64, tl *tally) (*report, error) {
	in, err := genServeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	var setups, ratesN, rates1 []float64
	var samples []sample
	var clock hostClock
	for r := 0; r < rounds; r++ {
		clock.sample()
		for k := 0; k < setupRepeats; k++ {
			runtime.GC() // each set-up starts from a collected heap, not its predecessor's garbage
			start := time.Now()
			st, err := startStack(w, seed, nproc, nil, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
			if in.ref == nil {
				if err := in.computeRefs(st.corpus); err != nil {
					return nil, err
				}
				in.checkInjections(tl)
			}
			st.stop(tl)
		}
		clock.sample()
		closedN, err := runPhase(in, nproc, closedLoop, share(seconds, 0.30/rounds), nil, tl)
		if err != nil {
			return nil, err
		}
		clock.sample()
		var closed1 *phase
		withProcs(1, func() { closed1, err = runPhase(in, 1, closedLoop, share(seconds, 0.30/rounds), nil, tl) })
		if err != nil {
			return nil, err
		}
		clock.sample()
		open, err := runPhase(in, nproc, openLoop, share(seconds, 0.40/rounds), nil, tl)
		if err != nil {
			return nil, err
		}
		ratesN = append(ratesN, closedN.rates...)
		rates1 = append(rates1, closed1.rates...)
		samples = append(samples, open.samples...)
	}
	clock.sample()
	p50, p90, p99, late, timed, excluded := openLatency(samples)
	rep := scaled(&clock, median(setups), iqm(ratesN), iqm(rates1), p50, p90)
	rep.checkOpenLoop(len(samples), p99, late, timed, excluded, tl)
	rep.note("%d rounds; setup_s is the median of %d set-ups, throughput the interquartile mean of %d sub-window rates",
		rounds, len(setups), len(ratesN))
	return rep, nil
}

// scaled reports an untraced run's end-to-end figures scaled to the
// reference host speed (see hostClock), and notes the raw ones.
func scaled(clock *hostClock, setup, eps, eps1, p50, p90 float64) *report {
	f := clock.slowdown()
	rep := &report{values: map[string]float64{
		"setup_s":           setup / f,
		"throughput_eps":    eps * f,
		"throughput_1p_eps": eps1 * f,
		"latency_p50_ms":    p50 / f,
		"latency_p90_ms":    p90 / f,
		"peak_rss_mb":       peakRSSMB(),
	}}
	rep.note("host: calibration kernel %.3f ms over %d samples, %.3f x the reference; unscaled setup_s %.6g, throughput_eps %.6g, throughput_1p_eps %.6g, latency_p50_ms %.6g, latency_p90_ms %.6g",
		1e3*median(clock.seconds), len(clock.seconds), f, setup, eps, eps1, p50, p90)
	return rep
}

// openLatency summarizes open-loop samples. Operations the generator sent
// more than lateLimit late are left out (excluded counts them); p50, p90
// and p99 are over the rest, and late is the generator's own p99 lateness
// over every operation.
func openLatency(samples []sample) (p50, p90, p99, late float64, timed, excluded int) {
	var lat, lateness []float64
	for _, s := range samples {
		lateness = append(lateness, s.late)
		if s.late > ms(lateLimit) {
			excluded++
			continue
		}
		lat = append(lat, s.lat)
	}
	return quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99), quantile(lateness, 0.99), len(lat), excluded
}

// checkOpenLoop notes the open loop's sample and marks the run invalid
// when the sample is too small for a p99 (ten samples beyond it) or the
// generator fell behind its schedule.
func (r *report) checkOpenLoop(n int, p99, late float64, timed, excluded int, tl *tally) {
	r.note("open loop: %d operations, %d sent more than %v late and not timed; p99 %.4g ms over %d samples (not a declared metric: the host's stalls decide it); generator late p99 %.3f ms",
		n, excluded, lateLimit, p99, timed, late)
	tl.check(timed >= 1000, "open loop: %d timed samples cannot support a p99", timed)
	tl.check(float64(excluded) <= maxLateShare*float64(n), "open loop invalid: the generator fell behind, %d of %d operations sent more than %v late", excluded, n, lateLimit)
}

// checkInjections requires stide to alarm, serially, in the batch holding
// each stream's injected MFS; the load phases then require the server to
// reproduce every batch's alarm count.
func (in *serveInputs) checkInjections(tl *tally) {
	if in.w.detector != adiv.DetectorStide {
		return
	}
	for i := range in.streams {
		k := in.injectionBatch(i)
		ok := in.ref[i][k].alarms > 0 && (in.cont[i] == nil || in.cont[i][k].alarms > 0)
		tl.check(ok, "stream %d: no alarm in batch %d holding the injection at %d", i, k, in.injectAt[i])
	}
}

// runServeTraced is the traced run of a serve workload: the set-up steps
// one by one, an untraced and a traced closed loop (their ratio is the
// tracing overhead), a traced open loop for the per-batch decomposition, a
// direct-Submit phase for queue wait, and replays of decode, encode and the
// detector on the workload's exact inputs.
func runServeTraced(w workload, seed uint64, seconds float64, tl *tally) (*report, error) {
	in, err := genServeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	rep := &report{values: zeroLayers()}
	v := rep.values
	corpus, err := tracedServeSetup(in, v, tl)
	if err != nil {
		return nil, err
	}
	if err := in.computeRefs(corpus); err != nil {
		return nil, err
	}
	in.checkInjections(tl)
	nproc := runtime.NumCPU()

	untraced, err := runPhase(in, nproc, closedLoop, share(seconds, 0.15), nil, tl)
	if err != nil {
		return nil, err
	}
	pc := newProbe()
	closed, err := runPhase(in, nproc, closedLoop, share(seconds, 0.25), pc, tl)
	if err != nil {
		return nil, err
	}
	busy, events := pc.scoreTotals()
	scorerNs := float64(busy.Nanoseconds()) / float64(events)
	v["scorer.ns_per_event"] = scorerNs
	v["router.shard_occupancy"] = pc.occupancy(closed.wall)
	v["router.shard_skew"] = skew(closed.shardEv)
	v["router.busy_ratio"] = float64(closed.stats.Busy) / float64(closed.ops)
	v["tenant.new_count"] = float64(len(pc.newMs))
	v["tenant.new_ms_p50"] = median(pc.newMs)
	v["tenant.pool_reuse_ratio"] = max(0, 1-float64(len(pc.newMs))/float64(closed.sessions))
	v["protocol.bytes_in_per_event"] = float64(closed.bytesOut) / float64(closed.acked)
	v["protocol.bytes_out_per_event"] = float64(closed.bytesIn) / float64(closed.acked)
	v["trace.overhead_ratio"] = iqm(untraced.rates) / iqm(closed.rates)
	tl.check(len(pc.newMs) > 0, "no tenant was created")
	if w.transport == "tcp" {
		tl.check(len(pc.newMs) <= w.streams, "%d tenants created for %d long-lived tenants", len(pc.newMs), w.streams)
	}
	rep.note("traced closed loop: %d sessions, %d NewTenant calls, %d busy", closed.sessions, len(pc.newMs), closed.stats.Busy)

	pd := newProbe()
	direct, err := runPhase(in, nproc, directSubmit, share(seconds, 0.10), pd, tl)
	if err != nil {
		return nil, err
	}
	dpairs, ok := matchOps(direct.recs, pd.byTenant())
	tl.check(ok, "direct submit: client and server batch logs disagree")
	waits := queueWaits(dpairs)
	queueP50 := quantile(waits, 0.50)
	v["router.queue_wait_p50_us"] = queueP50
	v["router.queue_wait_p99_us"] = quantile(waits, 0.99)
	rep.note("queue wait: %d direct submissions", len(waits))

	decodeNs, err := decodeNsPerEvent(in)
	if err != nil {
		return nil, err
	}
	encodeNs, err := encodeNsPerBatch(in)
	if err != nil {
		return nil, err
	}
	detNs, err := detectorNsPerWindow(in, corpus)
	if err != nil {
		return nil, err
	}
	v["protocol.decode_ns_per_event"] = decodeNs
	v["protocol.encode_ns_per_batch"] = encodeNs
	v["detector.ns_per_window"] = detNs
	v["online.overhead_ns_per_event"] = scorerNs - detNs

	po := newProbe()
	open, err := runPhase(in, nproc, openLoop, share(seconds, 0.35), po, tl)
	if err != nil {
		return nil, err
	}
	_, _, p99, late, timed, excluded := openLatency(open.samples)
	rep.checkOpenLoop(len(open.samples), p99, late, timed, excluded, tl)
	v["loadgen.late_p99_ms"] = late
	opairs, ok := matchOps(open.recs, po.byTenant())
	tl.check(ok, "open loop: client and server batch logs disagree")
	var residuals []float64
	for _, p := range opairs {
		n := 0
		for _, b := range p.batches {
			n += b.n
		}
		nb := float64(len(p.batches))
		b := decompose(float64(p.op.t1.Sub(p.op.t0).Nanoseconds())/1e3,
			decodeNs*float64(n)/1e3, queueP50*nb, p.scoreMicros(), encodeNs*nb/1e3)
		residuals = append(residuals, b.residual)
	}
	v["transport.residual_us_per_batch"] = median(residuals)
	rep.note("decomposition: %d open-loop operations", len(residuals))
	return rep, nil
}

// tracedServeSetup performs a serve set-up step by step, timing each call:
// training-stream synthesis, indexing, the detector window's database,
// detector training, MFS verification and injection into every stream.
func tracedServeSetup(in *serveInputs, v map[string]float64, tl *tally) (*seq.Corpus, error) {
	w := in.w
	start := time.Now()
	g, err := gen.New(trainingConfig(in.seed))
	if err != nil {
		return nil, err
	}
	training := g.Training()
	v["gen.training_ms"] = ms(time.Since(start))

	start = time.Now()
	ix := seq.NewIndex(training)
	v["seq.index_ms"] = ms(time.Since(start))

	start = time.Now()
	if _, err := ix.DB(w.window); err != nil {
		return nil, err
	}
	v["seq.db_build_ms"] = ms(time.Since(start))

	det, err := adiv.NewDetector(w.detector, w.window)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := adiv.TrainWithCorpus(det, ix.Corpus()); err != nil {
		return nil, err
	}
	v["detector.train_ms."+w.detector] = ms(time.Since(start))

	mfs, err := gen.CanonicalMFS(injectSize)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	_, err = anomaly.MustBeMFS(ix, mfs, gen.RareCutoff)
	v["anomaly.verify_ms"] = ms(time.Since(start))
	tl.check(err == nil, "injected sequence is not an MFS of the training stream: %v", err)

	backgrounds := make([]seq.Stream, len(in.streams))
	for i, s := range in.streams {
		pos := in.injectAt[i]
		backgrounds[i] = append(append(seq.Stream{}, s[:pos]...), s[pos+injectSize:]...)
	}
	start = time.Now()
	for i, bg := range backgrounds {
		p, err := inject.At(bg, mfs, in.injectAt[i])
		if err != nil {
			return nil, err
		}
		tl.check(slices.Equal(p.Stream, in.streams[i]), "stream %d: re-injection differs", i)
	}
	v["inject.ms"] = ms(time.Since(start))

	hits, misses := ix.Corpus().Stats()
	v["seq.db_hits"], v["seq.db_misses"] = float64(hits), float64(misses)
	return ix.Corpus(), nil
}

// skew is the busiest shard's events over the mean.
func skew(perShard []int64) float64 {
	var sum, top int64
	for _, e := range perShard {
		sum += e
		top = max(top, e)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) / (float64(sum) / float64(len(perShard)))
}

// zeroLayers returns every per-layer metric at 0: a layer the workload's
// path never enters did no work.
func zeroLayers() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	return v
}
