package online_test

import (
	"testing"

	"adiv/internal/detector"
	"adiv/internal/detector/markovdet"
	"adiv/internal/detector/stide"
	"adiv/internal/ensemble"
	"adiv/internal/inject"
	"adiv/internal/online"
	"adiv/internal/seq"
)

// TestVetoPipelineMatchesBatchSuppress cross-checks the streaming pipeline
// against the batch ensemble.Suppress accounting on generated data: the
// batch split of survivors into span and false alarms must add up to the
// pipeline's escalations. It lives outside package online because ensemble
// imports online.
func TestVetoPipelineMatchesBatchSuppress(t *testing.T) {
	var train seq.Stream
	for i := 0; i < 300; i++ {
		train = append(train, 0, 1, 2, 3)
	}
	train = append(train, 0, 3, 0, 1)
	for i := 0; i < 300; i++ {
		train = append(train, 0, 1, 2, 3)
	}

	mkPrimary := func() detector.Detector {
		d, err := markovdet.New(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Train(train); err != nil {
			t.Fatal(err)
		}
		return d
	}
	mkVeto := func() detector.Detector {
		d, err := stide.New(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Train(train); err != nil {
			t.Fatal(err)
		}
		return d
	}

	// Test stream with a foreign burst in the middle.
	var background seq.Stream
	for i := 0; i < 40; i++ {
		background = append(background, 0, 1, 2, 3)
	}
	p, err := inject.At(background, seq.Stream{2, 2, 2, 2}, 80)
	if err != nil {
		t.Fatal(err)
	}

	batch, err := ensemble.Suppress(mkPrimary(), mkVeto(), p, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := online.NewVetoPipeline(mkPrimary(), mkVeto(), 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	escalated, err := pipe.PushAll(p.Stream)
	if err != nil {
		t.Fatal(err)
	}
	// Both accountings must agree on whether anything was escalated and on
	// the total number of surviving primary alarms.
	survived := batch.Suppressed.SpanAlarms + batch.Suppressed.FalseAlarms
	if len(escalated) != survived {
		t.Errorf("streaming escalated %d alarms, batch kept %d", len(escalated), survived)
	}
	if (len(escalated) > 0) != batch.Suppressed.Hit && batch.Suppressed.FalseAlarms == 0 {
		t.Errorf("hit disagreement: streaming %v, batch %+v", len(escalated) > 0, batch.Suppressed)
	}
}
