package main

import (
	"math"
	"testing"

	"adiv"
	"adiv/internal/gen"
	"adiv/internal/online"
	"adiv/internal/seq"
	"adiv/internal/serve"
)

func testCorpus(t *testing.T) (*gen.Generator, *seq.Corpus) {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.TrainLen = 20_000
	cfg.BackgroundLen = 2_000
	g, err := gen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, seq.NewCorpus(g.Training())
}

// TestTenantFactoryRejectsBadFlags: a bad flag fails when the factory is
// built, at startup, not on the first tenant.
func TestTenantFactoryRejectsBadFlags(t *testing.T) {
	_, corpus := testCorpus(t)
	for _, c := range []struct {
		name                     string
		det, veto                string
		threshold, vetoThreshold float64
	}{
		{"unknown family", "nosuch", "", 1, 1},
		{"unknown veto family", "stide", "nosuch", 1, 1},
		{"veto without threshold", "stide", "markov", 0, 1},
		{"threshold above 1", "stide", "", 1.5, 1},
		{"veto threshold above 1", "markov", "stide", 1, 2},
	} {
		if _, err := tenantFactory(corpus, c.det, 4, c.threshold, c.veto, 0, c.vetoThreshold, nil); err == nil {
			t.Errorf("%s: factory built", c.name)
		}
	}
}

// TestTenantFactorySharesOneModel: every tenant is stream state over the
// one detector trained at startup, and its responses equal that family's
// batch Score.
func TestTenantFactorySharesOneModel(t *testing.T) {
	g, corpus := testCorpus(t)
	for _, family := range []string{adiv.DetectorStide, adiv.DetectorMarkov} {
		factory, err := tenantFactory(corpus, family, 4, 0.9, "", 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		b, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		detA := a.(serve.AlarmerTenant).A.Scorer().Detector()
		if detB := b.(serve.AlarmerTenant).A.Scorer().Detector(); detA != detB {
			t.Fatalf("%s: two tenants hold different detectors", family)
		}

		stream := g.Noisy(2_000, 3)
		got, _, err := a.PushBatch(stream)
		if err != nil {
			t.Fatal(err)
		}
		det, err := adiv.NewDetector(family, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := adiv.TrainWithCorpus(det, corpus); err != nil {
			t.Fatal(err)
		}
		want, err := det.Score(stream)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d responses, want %d", family, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s response %d: tenant %v != batch %v", family, i, got[i], want[i])
			}
		}
	}
}

// TestTenantFactoryVetoSharesModels: with -veto every tenant is a veto
// pipeline over the one primary and the one veto model trained at
// startup, and it escalates as a pipeline over those models does.
func TestTenantFactoryVetoSharesModels(t *testing.T) {
	g, corpus := testCorpus(t)
	factory, err := tenantFactory(corpus, adiv.DetectorMarkov, 4, 0.98, adiv.DetectorStide, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	b, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	pa, ok := a.(serve.PipelineTenant)
	if !ok {
		t.Fatalf("-veto tenant is %T, want serve.PipelineTenant", a)
	}
	pb := b.(serve.PipelineTenant)
	primary, veto := pa.P.Primary().Scorer().Detector(), pa.P.Veto().Scorer().Detector()
	if primary.Name() != adiv.DetectorMarkov || veto.Name() != adiv.DetectorStide || veto.Window() != 4 {
		t.Fatalf("pipeline over %s and %s(DW=%d), want markov and stide(DW=4)", primary.Name(), veto.Name(), veto.Window())
	}
	if pb.P.Primary().Scorer().Detector() != primary || pb.P.Veto().Scorer().Detector() != veto {
		t.Fatal("two tenants hold different trained models")
	}

	mfs, err := gen.CanonicalMFS(6)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append(g.Noisy(1_000, 3), mfs...), g.Noisy(1_000, 4)...)
	responses, alarms, err := a.PushBatch(stream)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := online.NewVetoPipeline(primary, veto, 0.98, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.PushAll(stream)
	if err != nil {
		t.Fatal(err)
	}
	if responses != nil || alarms != len(want) || alarms == 0 {
		t.Fatalf("tenant escalated %d (responses %v), serial pipeline %d", alarms, responses, len(want))
	}
}
