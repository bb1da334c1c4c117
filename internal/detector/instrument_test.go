package detector

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"adiv/internal/obs"
	"adiv/internal/seq"
)

// fake is a minimal Detector for instrumentation tests.
type fake struct{ window int }

func (f *fake) Name() string                          { return "fake" }
func (f *fake) Window() int                           { return f.window }
func (f *fake) Extent() int                           { return f.window }
func (f *fake) Train(seq.Stream) error                { return nil }
func (f *fake) Score(t seq.Stream) ([]float64, error) { return make([]float64, len(t)), nil }
func (f *fake) NewStream() (Stream, error)            { return nil, ErrNotTrained }

var _ Detector = (*fake)(nil)

// TestObservedOneDistributionPerQuantity pins the Observed catalogue: each
// Score call adds one observation of its elapsed seconds to the score/<name>
// span sketch, each response lands once in responses_q/<name>, and no
// second latency or response distribution is recorded beside them.
func TestObservedOneDistributionPerQuantity(t *testing.T) {
	reg := obs.New()
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	tick := 0
	reg.SetClock(func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Millisecond)
	})
	d := Observed(&fake{window: 3}, reg)
	const calls, symbols = 4, 10
	for i := 0; i < calls; i++ {
		if _, err := d.Score(make(seq.Stream, symbols)); err != nil {
			t.Fatal(err)
		}
	}

	snaps := reg.SketchSnapshots()
	score := snaps["score/fake"]
	if score.Count != calls || math.Abs(score.Sum-calls*1e-3) > 1e-12 {
		t.Errorf("score/fake sketch = %+v, want %d observations of 1ms each", score, calls)
	}
	if got := snaps["responses_q/fake"].Count; got != calls*symbols {
		t.Errorf("responses_q/fake count = %d, want %d", got, calls*symbols)
	}
	if got, want := reg.Gauge("throughput_sps/fake").Value(), calls*symbols/(calls*1e-3); math.Abs(got-want) > 1e-6 {
		t.Errorf("throughput_sps/fake = %v, want %v", got, want)
	}
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, dup := range []string{`"score_latency/`, `"responses/fake"`} {
		if bytes.Contains(data, []byte(dup)) {
			t.Errorf("snapshot records a second distribution %s…: %s", dup, data)
		}
	}
}
