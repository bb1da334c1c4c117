package stide

import (
	"errors"
	"testing"
	"testing/quick"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/detector/compose"
	"adiv/internal/seq"
)

func mk(vals ...int) seq.Stream {
	s := make(seq.Stream, len(vals))
	for i, v := range vals {
		s[i] = alphabet.Symbol(v)
	}
	return s
}

func TestNewValidatesWindow(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Errorf("New(0) succeeded")
	}
	d, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Window() != 3 || d.Extent() != 3 || d.Name() != "stide" {
		t.Errorf("detector metadata: %s window %d extent %d", d.Name(), d.Window(), d.Extent())
	}
}

func TestScoreBeforeTrain(t *testing.T) {
	d, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Score(mk(1, 2, 3)); !errors.Is(err, detector.ErrNotTrained) {
		t.Errorf("Score before Train: %v", err)
	}
}

func TestBinaryResponses(t *testing.T) {
	d, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	// Train on 1 2 3 1 2 3: pairs 12, 23, 31.
	if err := d.Train(mk(1, 2, 3, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if d.NormalCount() != 3 {
		t.Errorf("NormalCount() = %d, want 3", d.NormalCount())
	}
	// Test stream 1 2 3 2 1: pairs 12(ok) 23(ok) 32(foreign) 21(foreign).
	got, err := d.Score(mk(1, 2, 3, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 1, 1}
	if len(got) != len(want) {
		t.Fatalf("got %d responses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("response[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStreamTooShort(t *testing.T) {
	d, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(mk(1, 2, 3, 4, 5, 1, 2, 3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Score(mk(1, 2)); !errors.Is(err, detector.ErrStreamTooShort) {
		t.Errorf("short stream: %v", err)
	}
}

func TestRetrainReplacesModel(t *testing.T) {
	d, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(mk(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Train(mk(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := d.Score(mk(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("after retrain: %v, want [1 0]", got)
	}
}

// TestMatchesDatabaseSemantics: Stide's response must be exactly the
// foreignness indicator of each window, for random streams.
func TestMatchesDatabaseSemantics(t *testing.T) {
	check := func(trainRaw, testRaw []byte, wRaw uint8) bool {
		w := int(wRaw%4) + 1
		train := seq.FromBytes(clamp(trainRaw, 4))
		test := seq.FromBytes(clamp(testRaw, 4))
		if len(train) < w || len(test) < w {
			return true
		}
		d, err := New(w)
		if err != nil {
			return false
		}
		if err := d.Train(train); err != nil {
			return false
		}
		responses, err := d.Score(test)
		if err != nil {
			return false
		}
		db, err := seq.Build(train, w)
		if err != nil {
			return false
		}
		for i := range responses {
			want := 0.0
			if db.IsForeign(test[i : i+w]) {
				want = 1.0
			}
			if responses[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func clamp(raw []byte, k byte) []byte {
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = b % k
	}
	return out
}

// lfc trains stide(2) on an alternating 0/1 stream, checks that test yields
// the given 0/1 responses, and returns them smoothed over frame with
// compose.Smoothed, the locality frame count.
func lfc(t *testing.T, test seq.Stream, responses []float64, frame int) []float64 {
	t.Helper()
	d, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(mk(0, 1, 0, 1, 0, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	raw, err := d.Score(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(responses) {
		t.Fatalf("%d responses, want %d", len(raw), len(responses))
	}
	for i := range responses {
		if raw[i] != responses[i] {
			t.Fatalf("response %d = %v, want %v", i, raw[i], responses[i])
		}
	}
	s, err := compose.NewSmoothed(d, frame)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Score(test)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLFC(t *testing.T) {
	// Windows (1,2), (2,0) and the last (1,2) are foreign: responses
	// 0 1 1 0 0 0 1.
	got := lfc(t, mk(0, 1, 2, 0, 1, 0, 1, 2), []float64{0, 1, 1, 0, 0, 0, 1}, 3)
	want := []float64{0, 0.5, 2.0 / 3, 2.0 / 3, 1.0 / 3, 0, 1.0 / 3}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("LFC[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	d, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compose.NewSmoothed(d, 0); err == nil {
		t.Errorf("LFC(frame=0) succeeded")
	}
}

func TestLFCSuppressesIsolatedMismatch(t *testing.T) {
	// A single mismatch in a long clean stretch yields a low LFC score; a
	// dense burst yields a high one — the noise-suppression property.
	alternating := func() seq.Stream {
		s := make(seq.Stream, 21)
		for i := range s {
			s[i] = alphabet.Symbol(i % 2)
		}
		return s
	}
	// Repeating symbol 10 makes window 10, (0,0), the only foreign one.
	isoTest := alternating()
	for i := 11; i < len(isoTest); i++ {
		isoTest[i] = alphabet.Symbol((i + 1) % 2)
	}
	isolated := make([]float64, 20)
	isolated[10] = 1
	// A run of 0s over symbols 8..14 makes windows 8..13 foreign.
	burstTest := alternating()
	for i := 8; i <= 14; i++ {
		burstTest[i] = 0
	}
	burst := make([]float64, 20)
	for i := 8; i < 14; i++ {
		burst[i] = 1
	}
	maxIso := maxOf(lfc(t, isoTest, isolated, 6))
	maxBurst := maxOf(lfc(t, burstTest, burst, 6))
	if maxIso >= maxBurst {
		t.Errorf("isolated max %v not below burst max %v", maxIso, maxBurst)
	}
	if maxBurst != 1 {
		t.Errorf("dense burst max %v, want 1", maxBurst)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
