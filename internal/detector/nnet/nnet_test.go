package nnet

import (
	"errors"
	"math"
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/seq"
)

func mk(vals ...int) seq.Stream {
	s := make(seq.Stream, len(vals))
	for i, v := range vals {
		s[i] = alphabet.Symbol(v)
	}
	return s
}

// quickCfg is a small configuration that trains in milliseconds.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 12
	cfg.Epochs = 150
	return cfg
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero hidden", func(c *Config) { c.Hidden = 0 }},
		{"zero lr", func(c *Config) { c.LearningRate = 0 }},
		{"NaN lr", func(c *Config) { c.LearningRate = math.NaN() }},
		{"negative momentum", func(c *Config) { c.Momentum = -0.1 }},
		{"momentum one", func(c *Config) { c.Momentum = 1 }},
		{"zero epochs", func(c *Config) { c.Epochs = 0 }},
		{"alphabet too large", func(c *Config) { c.AlphabetSize = 1000 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted invalid config")
			}
			if _, err := New(2, cfg); err == nil {
				t.Errorf("New accepted invalid config")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestNewValidatesWindow(t *testing.T) {
	if _, err := New(0, DefaultConfig()); err == nil {
		t.Errorf("New(0) succeeded")
	}
	d, err := New(3, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if d.Window() != 3 || d.Extent() != 4 || d.Name() != "nn" {
		t.Errorf("metadata: %s window %d extent %d", d.Name(), d.Window(), d.Extent())
	}
}

func TestScoreBeforeTrain(t *testing.T) {
	d, err := New(2, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Score(mk(0, 1, 2)); !errors.Is(err, detector.ErrNotTrained) {
		t.Errorf("Score before Train: %v", err)
	}
}

func TestTrainDegenerateData(t *testing.T) {
	d, err := New(2, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(mk(0, 0, 0, 0)); err == nil {
		t.Errorf("Train on single-symbol alphabet succeeded")
	}
	if err := d.Train(mk(0, 1)); err == nil {
		t.Errorf("Train on stream with no (DW+1)-gram succeeded")
	}
}

// cyclic returns n repetitions of 0 1 2 3.
func cyclic(n int) seq.Stream {
	var s seq.Stream
	for i := 0; i < n; i++ {
		s = append(s, 0, 1, 2, 3)
	}
	return s
}

func TestLearnsDeterministicTransitions(t *testing.T) {
	d, err := New(2, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(cyclic(50)); err != nil {
		t.Fatal(err)
	}
	// P(2 | 0 1) should be close to 1; P(3 | 0 1) close to 0.
	pGood, err := d.Prob(mk(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if pGood < 0.95 {
		t.Errorf("P(2|0 1) = %v, want > 0.95", pGood)
	}
	pBad, err := d.Prob(mk(0, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if pBad > 0.02 {
		t.Errorf("P(3|0 1) = %v, want < 0.02", pBad)
	}
}

func TestScoreSeparatesNormalFromForeign(t *testing.T) {
	d, err := New(2, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(cyclic(50)); err != nil {
		t.Fatal(err)
	}
	// Test stream 0 1 2 0: grams (0 1 2) normal, (1 2 0)? training has
	// (1 2 3) only → (1 2 0) is a never-seen continuation.
	responses, err := d.Score(mk(0, 1, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(responses) != 2 {
		t.Fatalf("%d responses, want 2", len(responses))
	}
	if responses[0] > 0.05 {
		t.Errorf("normal gram response %v, want ≈0", responses[0])
	}
	if responses[1] < 0.95 {
		t.Errorf("foreign-continuation response %v, want ≈1", responses[1])
	}
}

func TestDeterministicTraining(t *testing.T) {
	train := cyclic(30)
	test := mk(0, 1, 2, 3, 0, 1)
	var first []float64
	for run := 0; run < 2; run++ {
		d, err := New(2, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Train(train); err != nil {
			t.Fatal(err)
		}
		responses, err := d.Score(test)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = responses
			continue
		}
		for i := range responses {
			if responses[i] != first[i] {
				t.Fatalf("training not deterministic: run 2 response[%d] %v vs %v", i, responses[i], first[i])
			}
		}
	}
}

func TestSeedChangesWeights(t *testing.T) {
	train := cyclic(30)
	cfgA, cfgB := quickCfg(), quickCfg()
	cfgB.Seed = cfgA.Seed + 1
	// Undertrain so initialization differences remain visible.
	cfgA.Epochs, cfgB.Epochs = 3, 3
	da, err := New(2, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(2, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.Train(train); err != nil {
		t.Fatal(err)
	}
	if err := db.Train(train); err != nil {
		t.Fatal(err)
	}
	pa, err := da.Prob(mk(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := db.Prob(mk(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Errorf("different seeds produced identical undertrained probabilities")
	}
}

func TestResponsesInUnitInterval(t *testing.T) {
	d, err := New(2, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(cyclic(30)); err != nil {
		t.Fatal(err)
	}
	responses, err := d.Score(mk(3, 3, 3, 0, 1, 2, 2, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, r := range responses {
		if r < 0 || r > 1 {
			t.Errorf("response[%d] = %v outside [0,1]", i, r)
		}
		sum += r
	}
	if math.IsNaN(sum) {
		t.Errorf("responses contain NaN")
	}
}

func TestProbDistributionSumsToOne(t *testing.T) {
	d, err := New(2, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(cyclic(30)); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for next := 0; next < 4; next++ {
		p, err := d.Prob(mk(0, 1, next))
		if err != nil {
			t.Fatal(err)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax distribution sums to %v", sum)
	}
}

func TestProbErrors(t *testing.T) {
	d, err := New(2, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Prob(mk(0, 1, 2)); !errors.Is(err, detector.ErrNotTrained) {
		t.Errorf("Prob before Train: %v", err)
	}
	if err := d.Train(cyclic(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Prob(mk(0, 1)); err == nil {
		t.Errorf("Prob of wrong-length gram succeeded")
	}
}

func TestExplicitAlphabetSize(t *testing.T) {
	cfg := quickCfg()
	cfg.AlphabetSize = 6
	d, err := New(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(cyclic(30)); err != nil {
		t.Fatal(err)
	}
	// Symbols 4 and 5 are in the declared alphabet but never trained on;
	// their probability must be defined (and small).
	p, err := d.Prob(mk(0, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 0.5 {
		t.Errorf("P(5|0 1) = %v", p)
	}
}

func TestStreamTooShort(t *testing.T) {
	d, err := New(3, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(cyclic(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Score(mk(0, 1, 2)); !errors.Is(err, detector.ErrStreamTooShort) {
		t.Errorf("short stream: %v", err)
	}
}

func TestTwoHiddenLayers(t *testing.T) {
	cfg := quickCfg()
	cfg.Hidden2 = 8
	cfg.Epochs = 250
	d, err := New(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(cyclic(50)); err != nil {
		t.Fatal(err)
	}
	pGood, err := d.Prob(mk(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if pGood < 0.9 {
		t.Errorf("two-layer P(2|0 1) = %v, want > 0.9", pGood)
	}
	pBad, err := d.Prob(mk(0, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if pBad > 0.05 {
		t.Errorf("two-layer P(3|0 1) = %v, want < 0.05", pBad)
	}
	// Distribution still sums to one.
	sum := 0.0
	for next := 0; next < 4; next++ {
		p, err := d.Prob(mk(0, 1, next))
		if err != nil {
			t.Fatal(err)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("two-layer softmax sums to %v", sum)
	}
}

func TestHidden2Validation(t *testing.T) {
	cfg := quickCfg()
	cfg.Hidden2 = -1
	if err := cfg.Validate(); err == nil {
		t.Errorf("negative Hidden2 accepted")
	}
}

func TestTargetLossStopsEarly(t *testing.T) {
	// With a loose target the trained probabilities stay farther from the
	// extremes than fully trained ones: indirect evidence the loop exited
	// early, without exposing epoch counters.
	full := quickCfg()
	early := quickCfg()
	early.TargetLoss = 0.5
	train := cyclic(50)

	df, err := New(2, full)
	if err != nil {
		t.Fatal(err)
	}
	de, err := New(2, early)
	if err != nil {
		t.Fatal(err)
	}
	if err := df.Train(train); err != nil {
		t.Fatal(err)
	}
	if err := de.Train(train); err != nil {
		t.Fatal(err)
	}
	pf, err := df.Prob(mk(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pe, err := de.Prob(mk(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if pe >= pf {
		t.Errorf("early-stopped P=%v not below fully trained P=%v", pe, pf)
	}
	// Still a usable model: the dominant continuation wins.
	if pe < 0.4 {
		t.Errorf("early-stopped P=%v implausibly low", pe)
	}
}

func TestTargetLossValidation(t *testing.T) {
	cfg := quickCfg()
	cfg.TargetLoss = -1
	if err := cfg.Validate(); err == nil {
		t.Errorf("negative target loss accepted")
	}
}

// TestUndertrainedNetworkIsWeak reproduces the paper's tuning-sensitivity
// caveat in miniature: with almost no training the anomaly signal for a
// foreign continuation stays far from maximal.
func TestUndertrainedNetworkIsWeak(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 1
	d, err := New(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(cyclic(50)); err != nil {
		t.Fatal(err)
	}
	p, err := d.Prob(mk(0, 1, 3)) // foreign continuation
	if err != nil {
		t.Fatal(err)
	}
	if 1-p > 0.999 {
		t.Errorf("undertrained network already maximal: response %v", 1-p)
	}
}

// TestOutOfAlphabetContext pins the kernel's answer for a context symbol at
// or beyond the trained alphabet size: like an out-of-alphabet next symbol,
// the gram has probability 0 and response 1 at every context position,
// including the last, where an unchecked first-layer index runs past the
// weights; batch and stream agree. Grams inside the alphabet keep 1 - P̂.
func TestOutOfAlphabetContext(t *testing.T) {
	d, err := New(3, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(cyclic(30)); err != nil {
		t.Fatal(err)
	}
	// Trained alphabet {0..3}; 4 and 9 fall outside it.
	test := mk(0, 1, 2, 3, 0, 1, 9, 3, 0, 1, 2, 4, 0, 1, 2, 3)
	got, err := d.Score(test)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		gram := test[i : i+4]
		outside := false
		for _, sym := range gram {
			outside = outside || sym >= 4
		}
		p, err := d.Prob(gram)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case outside && (r != 1 || p != 0):
			t.Errorf("gram %v: response %v, probability %v; want 1 and 0", gram, r, p)
		case !outside && r != 1-p:
			t.Errorf("gram %v: response %v, want 1 - %v", gram, r, p)
		}
	}
	st, err := d.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	var streamed []float64
	for i := range test {
		if streamed, err = st.Push(test[i:i+1], streamed); err != nil {
			t.Fatal(err)
		}
	}
	if len(streamed) != len(got) {
		t.Fatalf("stream gave %d responses, batch %d", len(streamed), len(got))
	}
	for i := range got {
		if math.Float64bits(streamed[i]) != math.Float64bits(got[i]) {
			t.Errorf("response %d: stream %v, batch %v", i, streamed[i], got[i])
		}
	}
}
