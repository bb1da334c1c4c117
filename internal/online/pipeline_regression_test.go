package online

import (
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/detector/stide"
	"adiv/internal/detector/tstide"
	"adiv/internal/seq"
)

// TestCorroborateFreshPrimaryAfterOlderEscalation is the regression test for
// the missed-escalation bug: when one push's veto window corroborates an
// older pending primary, the fresh primary alarm raised by the same push
// must escalate too. A past version gated the fresh primary's check on
// nothing else having escalated, so it stayed pending and was later counted
// suppressed.
func TestCorroborateFreshPrimaryAfterOlderEscalation(t *testing.T) {
	// Primary (extent 2) alarms at windows 0 and 2; veto (extent 3) alarms
	// at window 1 only. Push 4 completes both primary window 2 and veto
	// window 1, which overlaps the pending primary 0 ([0,2) vs [1,4)) and
	// the fresh primary 2 ([2,4)).
	const n = 8
	pipe, err := NewVetoPipeline(cannedAt("p", 2, n, 0, 2), cannedAt("v", 3, n, 1), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if esc, err := pipe.Push(0); err != nil || len(esc) != 0 {
			t.Fatalf("push %d: escalated %+v, err %v before any veto alarm", i, esc, err)
		}
	}
	escalated, err := pipe.Push(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(escalated) != 2 {
		t.Fatalf("%d escalations, want 2 (old pending + fresh primary): %+v", len(escalated), escalated)
	}
	if escalated[0].Primary.Position != 0 || escalated[0].VetoPosition != 1 {
		t.Errorf("first escalation %+v, want pending alarm 0 corroborated by veto window 1", escalated[0])
	}
	if escalated[1].Primary.Position != 2 || escalated[1].VetoPosition != 1 {
		t.Errorf("second escalation %+v, want fresh primary 2 corroborated by veto window 1", escalated[1])
	}
	if _, err := pipe.PushAll(make([]alphabet.Symbol, n-4)); err != nil {
		t.Fatal(err)
	}
	if got := pipe.Suppressed(); got != 0 {
		t.Errorf("Suppressed() = %d after full corroboration, want 0", got)
	}
}

// TestCorroborateSamePushDoubleAlarm checks the common same-push case: one
// symbol completes both a primary and a corroborating veto window, while the
// same veto window also corroborates an older pending alarm. Both
// escalations must surface from the single push.
func TestCorroborateSamePushDoubleAlarm(t *testing.T) {
	// Both extents 3. Primary alarms at windows 4 and 5, veto at 5 only:
	// push 8 completes windows 5 of both, and veto window 5 overlaps the
	// pending primary 4.
	const n = 12
	pipe, err := NewVetoPipeline(cannedAt("p", 3, n, 4, 5), cannedAt("v", 3, n, 5), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if esc, err := pipe.PushAll(make([]alphabet.Symbol, 7)); err != nil || len(esc) != 0 {
		t.Fatalf("escalated %+v, err %v before the veto alarm", esc, err)
	}
	escalated, err := pipe.Push(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(escalated) != 2 {
		t.Fatalf("%d escalations, want 2: %+v", len(escalated), escalated)
	}
	for _, e := range escalated {
		if e.VetoPosition != 5 {
			t.Errorf("escalation %+v corroborated by veto window %d, want 5", e, e.VetoPosition)
		}
	}
	if escalated[0].Primary.Position != 4 || escalated[1].Primary.Position != 5 {
		t.Errorf("escalated primaries %+v, want positions 4 and 5", escalated)
	}
	if _, err := pipe.PushAll(make([]alphabet.Symbol, n-8)); err != nil {
		t.Fatal(err)
	}
	if got := pipe.Suppressed(); got != 0 {
		t.Errorf("Suppressed() = %d, want 0", got)
	}
}

// TestVetoPipelineSuppressedAccounting pins the Suppressed counter: primary
// alarms that expire uncorroborated are counted exactly once, and
// corroborated alarms are never counted.
func TestVetoPipelineSuppressedAccounting(t *testing.T) {
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

	// Two rare-but-seen pairs (0 3) alarm the primary only; one foreign
	// pair (1 1) alarms both. Long normal tails push the stream past the
	// expiry horizon so the uncorroborated alarms settle.
	test := mk(0, 1, 2, 3, 0, 3, 0, 1, 2, 3, 0, 3, 0, 1, 2, 3, 1, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3)
	escalated, err := pipe.PushAll(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(escalated) == 0 {
		t.Fatalf("foreign pair was not escalated")
	}
	if got := pipe.Suppressed(); got != 2 {
		t.Errorf("Suppressed() = %d, want 2 (the two rare-only alarms)", got)
	}
}
