package online

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/detector/compose"
	"adiv/internal/detector/hmm"
	"adiv/internal/detector/lbr"
	"adiv/internal/detector/markovdet"
	"adiv/internal/detector/nnet"
	"adiv/internal/detector/stide"
	"adiv/internal/detector/tstide"
	"adiv/internal/obs"
	"adiv/internal/rng"
	"adiv/internal/seq"
)

func mk(vals ...int) seq.Stream {
	s := make(seq.Stream, len(vals))
	for i, v := range vals {
		s[i] = alphabet.Symbol(v)
	}
	return s
}

func trainStream() seq.Stream {
	var s seq.Stream
	for i := 0; i < 60; i++ {
		s = append(s, 0, 1, 2, 3)
	}
	return s
}

func trained(t *testing.T, build func() (detector.Detector, error)) detector.Detector {
	t.Helper()
	det, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Train(trainStream()); err != nil {
		t.Fatal(err)
	}
	return det
}

// randStream is a k-cycle with 20% of positions replaced by random symbols
// in [0,k): rare and foreign windows for every family.
func randStream(seed uint64, length, k int) seq.Stream {
	src := rng.New(seed)
	out := make(seq.Stream, length)
	for i := range out {
		if src.Float64() < 0.2 {
			out[i] = alphabet.Symbol(src.Intn(k))
		} else {
			out[i] = alphabet.Symbol(i % k)
		}
	}
	return out
}

// streamCase is one detector family or decorator stack of the
// streaming-equals-batch table.
type streamCase struct {
	name  string
	build func() (detector.Detector, error)
}

func smoothed(inner func() (detector.Detector, error), frame int) func() (detector.Detector, error) {
	return func() (detector.Detector, error) {
		d, err := inner()
		if err != nil {
			return nil, err
		}
		return compose.NewSmoothed(d, frame)
	}
}

func quantized(inner func() (detector.Detector, error), floor float64) func() (detector.Detector, error) {
	return func() (detector.Detector, error) {
		d, err := inner()
		if err != nil {
			return nil, err
		}
		return compose.NewQuantized(d, floor)
	}
}

// streamCases covers every detector family and decorator.
func streamCases() []streamCase {
	newStide := func() (detector.Detector, error) { return stide.New(3) }
	newMarkov := func() (detector.Detector, error) { return markovdet.New(3) }
	return []streamCase{
		{"stide", newStide},
		{"stide-dw1", func() (detector.Detector, error) { return stide.New(1) }},
		{"tstide", func() (detector.Detector, error) { return tstide.New(3, 0.01) }},
		{"lb", func() (detector.Detector, error) { return lbr.New(3) }},
		{"markov", newMarkov},
		{"markov-laplace", func() (detector.Detector, error) { return markovdet.NewSmoothed(3, 0.5) }},
		{"nn", func() (detector.Detector, error) {
			cfg := nnet.DefaultConfig()
			cfg.Hidden, cfg.Epochs, cfg.AlphabetSize = 8, 20, 10
			return nnet.New(3, cfg)
		}},
		{"hmm", func() (detector.Detector, error) {
			cfg := hmm.DefaultConfig()
			cfg.States, cfg.Iterations = 6, 4
			return hmm.New(cfg)
		}},
		{"stide+lfc", smoothed(newStide, 4)},
		{"markov+lfc", smoothed(newMarkov, 3)},
		{"stide@1", quantized(newStide, 0.5)},
		{"markov@1", quantized(newMarkov, 0.6)},
		{"markov+lfc@1", quantized(smoothed(newMarkov, 3), 0.5)},
	}
}

// trainedCases trains every case on one stream.
func trainedCases(t *testing.T) []detector.Detector {
	t.Helper()
	train := randStream(3, 3000, 8)
	var out []detector.Detector
	for _, c := range streamCases() {
		det, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := det.Train(train); err != nil {
			t.Fatalf("train %s: %v", c.name, err)
		}
		out = append(out, det)
	}
	return out
}

// streamMatchesBatch reports whether pushing test through a fresh Scorer
// yields batch Score's responses bit for bit, or, when the stream is
// shorter than one extent, no responses where Score reports the short
// stream.
func streamMatchesBatch(det detector.Detector, test seq.Stream) (bool, string) {
	batch, berr := det.Score(test)
	scorer, err := NewScorer(det)
	if err != nil {
		return false, "NewScorer: " + err.Error()
	}
	streamed, serr := scorer.PushAll(test)
	if serr != nil {
		return false, "PushAll: " + serr.Error()
	}
	if berr != nil {
		if errors.Is(berr, detector.ErrStreamTooShort) && len(streamed) == 0 {
			return true, ""
		}
		return false, "Score: " + berr.Error()
	}
	if len(streamed) != len(batch) {
		return false, "response counts differ"
	}
	for i := range batch {
		if math.Float64bits(streamed[i]) != math.Float64bits(batch[i]) {
			return false, "responses differ"
		}
	}
	return true, ""
}

func TestNewScorerValidation(t *testing.T) {
	if _, err := NewScorer(nil); err == nil {
		t.Errorf("nil detector accepted")
	}
}

func TestPushUntrained(t *testing.T) {
	for _, c := range streamCases() {
		det, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewScorer(det); !errors.Is(err, detector.ErrNotTrained) {
			t.Errorf("%s: NewScorer of an untrained detector: %v, want ErrNotTrained", c.name, err)
		}
	}
}

// TestPushUntrainedMatchesReference checks that the online untrained error
// is the one batch Score, the reference, reports for the same detector.
func TestPushUntrainedMatchesReference(t *testing.T) {
	stream := randStream(1, 10, 4)
	for _, c := range streamCases() {
		det, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		_, wantErr := det.Score(stream)
		_, gotErr := NewScorer(det)
		if !errors.Is(wantErr, detector.ErrNotTrained) || !errors.Is(gotErr, detector.ErrNotTrained) {
			t.Errorf("%s: online err %v, batch reference %v; want both ErrNotTrained", c.name, gotErr, wantErr)
		}
	}
}

// randomSplits cuts n symbols into batch sizes drawn from 0..3·extent,
// every third batch a batch of one.
func randomSplits(src *rng.Source, n, extent int) []int {
	var sizes []int
	for n > 0 {
		k := 1
		if len(sizes)%3 != 0 {
			k = src.Intn(3*extent + 1)
		}
		k = min(k, n)
		sizes = append(sizes, k)
		n -= k
	}
	return sizes
}

// alarmThreshold is a threshold in (0,1] some of the responses reach when
// any is positive: their 90th percentile, capped at 1.
func alarmThreshold(responses []float64) float64 {
	sorted := slices.Clone(responses)
	slices.Sort(sorted)
	if th := sorted[len(sorted)*9/10]; th > 0 {
		return min(th, 1)
	}
	return 1
}

// journaledAlarmer is an Alarmer journaling into buf under a fixed clock,
// so two Alarmers raising the same alarms write the same bytes.
func journaledAlarmer(det detector.Detector, threshold float64, buf *bytes.Buffer) (*Alarmer, error) {
	a, err := NewAlarmer(det, threshold)
	if err != nil {
		return nil, err
	}
	j := obs.NewAlertJournal(buf)
	j.SetClock(func() time.Time { return time.Unix(0, 0).UTC() })
	a.SetJournal(j)
	return a, nil
}

// splitMatchesBatch pushes test in batches of the given sizes through a
// fresh Scorer, which must yield batch Score's responses bit for bit, and
// through a fresh Alarmer, which must raise the alarms and journal the
// records of a per-symbol Alarmer over the same stream. It returns the
// number of alarms compared.
func splitMatchesBatch(det detector.Detector, test seq.Stream, sizes []int) (int, string) {
	batch, err := det.Score(test)
	if err != nil {
		return 0, "Score: " + err.Error()
	}
	scorer, err := NewScorer(det)
	if err != nil {
		return 0, "NewScorer: " + err.Error()
	}
	var got []float64
	off := 0
	for _, k := range sizes {
		if got, err = scorer.PushBatch(test[off:off+k], got); err != nil {
			return 0, "PushBatch: " + err.Error()
		}
		off += k
	}
	if len(got) != len(batch) {
		return 0, fmt.Sprintf("PushBatch gave %d responses, Score %d", len(got), len(batch))
	}
	for i := range batch {
		if math.Float64bits(got[i]) != math.Float64bits(batch[i]) {
			return 0, fmt.Sprintf("response %d: PushBatch %v, Score %v", i, got[i], batch[i])
		}
	}
	if recent, tail := scorer.Recent(nil), batch[max(0, len(batch)-responseRingLen):]; !slices.Equal(recent, tail) {
		return 0, fmt.Sprintf("Recent %v, want the last %d responses %v", recent, len(tail), tail)
	}

	th := alarmThreshold(batch)
	var perSymJournal, splitJournal bytes.Buffer
	perSym, err := journaledAlarmer(det, th, &perSymJournal)
	if err != nil {
		return 0, err.Error()
	}
	split, err := journaledAlarmer(det, th, &splitJournal)
	if err != nil {
		return 0, err.Error()
	}
	var want, alarms []Alarm
	for _, sym := range test {
		alarm, raised, err := perSym.Push(sym)
		if err != nil {
			return 0, "Push: " + err.Error()
		}
		if raised {
			want = append(want, alarm)
		}
	}
	off = 0
	for _, k := range sizes {
		_, n, err := split.PushBatch(test[off:off+k], nil)
		if err != nil {
			return 0, "Alarmer.PushBatch: " + err.Error()
		}
		alarms = append(alarms, split.raised[:n]...)
		off += k
	}
	var thresholded []Alarm
	for i, r := range batch {
		if r >= th {
			thresholded = append(thresholded, Alarm{Position: i, Response: r})
		}
	}
	if !slices.Equal(want, thresholded) {
		return 0, fmt.Sprintf("per-symbol Push alarms %v, thresholded Score %v", want, thresholded)
	}
	if !slices.Equal(alarms, want) {
		return 0, fmt.Sprintf("PushBatch alarms %v, per-symbol Push %v", alarms, want)
	}
	if !bytes.Equal(splitJournal.Bytes(), perSymJournal.Bytes()) {
		return 0, fmt.Sprintf("journals differ:\n%s\nvs per-symbol\n%s", splitJournal.String(), perSymJournal.String())
	}
	return len(want), ""
}

// TestStreamingMatchesBatch pins the core equivalence for every family and
// decorator: pushing a stream symbol by symbol, as one batch, or split at
// random into batches of 0..3·extent symbols yields the batch Score of the
// same stream, bit for bit, and the same alarms and journal records.
func TestStreamingMatchesBatch(t *testing.T) {
	tests := []seq.Stream{
		mk(0, 1, 2, 3, 0, 1, 3, 3, 2, 1, 0, 1, 2, 3),
		randStream(11, 1200, 9), // symbol 8 never follows the 8-cycle; 9 is foreign
		randStream(12, 300, 4),
	}
	for i, det := range trainedCases(t) {
		t.Run(streamCases()[i].name, func(t *testing.T) {
			alarms := 0
			for j, test := range tests {
				if ok, why := streamMatchesBatch(det, test); !ok {
					t.Errorf("stream %d: %s", j, why)
				}
				for seed := uint64(1); seed <= 4; seed++ {
					sizes := randomSplits(rng.New(seed), len(test), det.Extent())
					n, why := splitMatchesBatch(det, test, sizes)
					if why != "" {
						t.Errorf("stream %d, split seed %d: %s", j, seed, why)
					}
					alarms += n
				}
			}
			if alarms == 0 {
				t.Error("no stream raised an alarm; the alarm comparison is vacuous")
			}
		})
	}
}

// TestStreamingMatchesBatchProperty extends the equivalence to random
// streams, including ones shorter than the extent.
func TestStreamingMatchesBatchProperty(t *testing.T) {
	cases := streamCases()
	for i, det := range trainedCases(t) {
		check := func(raw []byte) bool {
			test := make(seq.Stream, len(raw))
			for i, b := range raw {
				test[i] = alphabet.Symbol(b % 10)
			}
			ok, _ := streamMatchesBatch(det, test)
			return ok
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", cases[i].name, err)
		}
	}
}

func TestReset(t *testing.T) {
	det := trained(t, func() (detector.Detector, error) { return stide.New(2) })
	scorer, err := NewScorer(det)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scorer.PushAll(mk(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	scorer.Reset()
	if scorer.Seen() != 0 {
		t.Errorf("Seen() = %d after reset", scorer.Seen())
	}
	// After reset the first window must wait for a full fill again.
	_, ready, err := scorer.Push(3)
	if err != nil || ready {
		t.Errorf("first push after reset: ready=%v err=%v", ready, err)
	}
}

func TestAlarmer(t *testing.T) {
	det := trained(t, func() (detector.Detector, error) { return stide.New(2) })
	alarmer, err := NewAlarmer(det, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 0 1 2 3 1 1: the pair (3,1) and (1,1) are foreign to the
	// 0 1 2 3 cycle.
	alarms, err := alarmer.PushAll(mk(0, 1, 2, 3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 2 {
		t.Fatalf("%d alarms, want 2: %+v", len(alarms), alarms)
	}
	if alarms[0].Position != 3 || alarms[1].Position != 4 {
		t.Errorf("alarm positions %+v, want windows starting at 3 and 4", alarms)
	}
	for _, a := range alarms {
		if a.Response != 1 {
			t.Errorf("alarm response %v", a.Response)
		}
	}
}

func TestAlarmerValidation(t *testing.T) {
	det := trained(t, func() (detector.Detector, error) { return stide.New(2) })
	for _, th := range []float64{0, -1, 1.01} {
		if _, err := NewAlarmer(det, th); err == nil {
			t.Errorf("threshold %v accepted", th)
		}
	}
}

func TestAlarmerMatchesBatchAlarms(t *testing.T) {
	det := trained(t, func() (detector.Detector, error) { return markovdet.New(2) })
	test := mk(0, 1, 2, 3, 0, 2, 2, 3, 0, 1)
	batch, err := det.Score(test)
	if err != nil {
		t.Fatal(err)
	}
	alarmer, err := NewAlarmer(det, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	alarms, err := alarmer.PushAll(test)
	if err != nil {
		t.Fatal(err)
	}
	var wantPositions []int
	for i, r := range batch {
		if r >= 0.9 {
			wantPositions = append(wantPositions, i)
		}
	}
	if len(alarms) != len(wantPositions) {
		t.Fatalf("%d alarms, want %d", len(alarms), len(wantPositions))
	}
	for i := range alarms {
		if alarms[i].Position != wantPositions[i] {
			t.Errorf("alarm %d at %d, want %d", i, alarms[i].Position, wantPositions[i])
		}
	}
}

// TestInstrumentLiveGauges pins the streaming telemetry a /metrics scrape
// of a long-lived deployment reads: symbols pushed, alarms raised, the
// deployed threshold, and the detector's latest response.
func TestInstrumentLiveGauges(t *testing.T) {
	det := trained(t, func() (detector.Detector, error) { return stide.New(2) })
	alarmer, err := NewAlarmer(det, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	alarmer.Instrument(reg)
	if got := reg.Gauge("online/threshold").Value(); got != 0.75 {
		t.Errorf("online/threshold = %v, want 0.75", got)
	}
	// 0 1 2 3 1: the final pair (3,1) is foreign, so the last response is 1.
	if _, err := alarmer.PushAll(mk(0, 1, 2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("online/symbols").Value(); got != 5 {
		t.Errorf("online/symbols = %d, want 5", got)
	}
	if got := reg.Counter("online/alarms").Value(); got != 1 {
		t.Errorf("online/alarms = %d, want 1", got)
	}
	if got := reg.Gauge("online/last_response").Value(); got != 1 {
		t.Errorf("online/last_response = %v, want 1", got)
	}

	// Detaching restores the uninstrumented no-op path.
	alarmer.Instrument(nil)
	if _, err := alarmer.PushAll(mk(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("online/symbols").Value(); got != 5 {
		t.Errorf("detached scorer still counting: %d", got)
	}
}

// TestPushObservedUnwraps checks the Observed instrumentation wrapper
// streams through the inner detector's stream, bit-identically to batch.
func TestPushObservedUnwraps(t *testing.T) {
	train := randStream(3, 2000, 8)
	st, err := stide.New(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Train(train); err != nil {
		t.Fatal(err)
	}
	wrapped := detector.Observed(st, obs.New())
	if ok, why := streamMatchesBatch(wrapped, randStream(9, 500, 8)); !ok {
		t.Fatal(why)
	}
}

// TestPushSteadyStateAllocs is the regression guard for the streaming hot
// path: once the window is full, a push or a batch into a presized dst
// allocates nothing — for every family and decorator, instrumented.
func TestPushSteadyStateAllocs(t *testing.T) {
	cases := streamCases()
	for i, det := range trainedCases(t) {
		s, err := NewScorer(det)
		if err != nil {
			t.Fatal(err)
		}
		s.Instrument(obs.New())
		warm := randStream(5, 64, 8)
		if _, err := s.PushAll(warm); err != nil {
			t.Fatal(err)
		}
		sym := alphabet.Symbol(1)
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := s.Push(sym); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state push allocated %.2f times, want 0", cases[i].name, allocs)
		}
		// A batch into a presized dst allocates nothing either, once the
		// stream's buffer has grown to the batch.
		batch := randStream(6, 256, 8)
		dst := make([]float64, 0, len(batch))
		if _, err := s.PushBatch(batch, dst); err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(50, func() {
			if _, err := s.PushBatch(batch, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state PushBatch allocated %.2f times, want 0", cases[i].name, allocs)
		}
	}
}

// TestScorerRecent covers the preallocated response ring: fill, wrap,
// order, reset.
func TestScorerRecent(t *testing.T) {
	train := randStream(3, 2000, 8)
	st, err := stide.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Train(train); err != nil {
		t.Fatal(err)
	}
	s, err := NewScorer(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Recent(nil); len(got) != 0 {
		t.Fatalf("fresh scorer Recent returned %d responses", len(got))
	}
	test := randStream(5, 300, 9)
	want, err := s.PushAll(test)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Recent(nil)
	if len(got) != responseRingLen {
		t.Fatalf("Recent returned %d responses, want %d", len(got), responseRingLen)
	}
	tail := want[len(want)-responseRingLen:]
	for i := range got {
		if got[i] != tail[i] {
			t.Fatalf("Recent[%d] = %v, want %v", i, got[i], tail[i])
		}
	}
	s.Reset()
	if got := s.Recent(nil); len(got) != 0 {
		t.Fatalf("Recent after Reset returned %d responses", len(got))
	}
}
