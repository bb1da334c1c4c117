package online

import (
	"testing"

	"adiv/internal/detector"
	"adiv/internal/detector/stide"
	"adiv/internal/detector/tstide"
	"adiv/internal/seq"
)

func TestNewVetoPipelineValidation(t *testing.T) {
	det := trained(t, func() (detector.Detector, error) { return stide.New(2) })
	if _, err := NewVetoPipeline(det, det, 0, 1); err == nil {
		t.Errorf("primary threshold 0 accepted")
	}
	if _, err := NewVetoPipeline(det, det, 1, 2); err == nil {
		t.Errorf("veto threshold 2 accepted")
	}
}

func TestVetoPipelineEscalatesCorroborated(t *testing.T) {
	// Primary: t-stide (alarms on rare AND foreign); veto: stide (foreign
	// only). Training: cycle 0 1 2 3 with one rare burst "0 3".
	var train seq.Stream
	for i := 0; i < 200; i++ {
		train = append(train, 0, 1, 2, 3)
	}
	train = append(train, 0, 3)
	for i := 0; i < 200; i++ {
		train = append(train, 0, 1, 2, 3)
	}
	primary, err := tstide.New(2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	veto, err := stide.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Train(train); err != nil {
		t.Fatal(err)
	}
	if err := veto.Train(train); err != nil {
		t.Fatal(err)
	}
	pipe, err := NewVetoPipeline(primary, veto, 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Test stream: normal cycle, the rare-but-seen pair (0 3), more
	// cycle, then a genuinely foreign pair (1 1).
	test := mk(0, 1, 2, 3, 0, 3, 0, 1, 2, 3, 1, 1, 2, 3)
	escalated, err := pipe.PushAll(test)
	if err != nil {
		t.Fatal(err)
	}
	// Foreign windows: (3,0)? occurs in training (cycle wrap). (0,3) rare
	// → primary only → suppressed. (3,1) foreign → both. (1,1) foreign →
	// both. (1,2) after? occurs. So escalations at positions 9 and 10.
	if len(escalated) != 2 {
		t.Fatalf("%d escalations, want 2: %+v", len(escalated), escalated)
	}
	if escalated[0].Primary.Position != 9 || escalated[1].Primary.Position != 10 {
		t.Errorf("escalated positions %+v, want windows 9 and 10", escalated)
	}
	if pipe.Suppressed() == 0 {
		t.Errorf("rare-only alarm was not suppressed")
	}
}
