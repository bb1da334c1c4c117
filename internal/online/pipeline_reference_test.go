package online

import (
	"fmt"
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/eval"
	"adiv/internal/rng"
	"adiv/internal/seq"
)

// canned is a detector whose responses are fixed in advance: Score returns
// them and NewStream replays them window by window, so a test controls
// exactly which windows alarm.
type canned struct {
	name      string
	extent    int
	responses []float64
}

func (c *canned) Name() string           { return c.name }
func (c *canned) Window() int            { return c.extent }
func (c *canned) Extent() int            { return c.extent }
func (c *canned) Train(seq.Stream) error { return nil }
func (c *canned) Score(test seq.Stream) ([]float64, error) {
	return detector.Fold(c, test)
}
func (c *canned) NewStream() (detector.Stream, error) { return &cannedStream{c: c}, nil }

type cannedStream struct {
	c   *canned
	fed int
}

func (s *cannedStream) Push(syms []alphabet.Symbol, dst []float64) ([]float64, error) {
	for range syms {
		s.fed++
		if i := s.fed - s.c.extent; i >= 0 {
			dst = append(dst, s.c.responses[i])
		}
	}
	return dst, nil
}

func (s *cannedStream) Reset() { s.fed = 0 }

// cannedAt builds a canned detector of the given extent over a stream of n
// symbols whose alarming windows (response 1; all others 0) start at the
// given positions.
func cannedAt(name string, extent, n int, alarms ...int) *canned {
	c := &canned{name: name, extent: extent, responses: make([]float64, seq.NumWindows(n, extent))}
	for _, pos := range alarms {
		c.responses[pos] = 1
	}
	return c
}

// refPipeline is the corroboration state machine VetoPipeline used before
// the pending FIFO and the single latest veto window replaced it: push,
// corroborate, expire and overlaps are kept verbatim, minus telemetry and
// journal writes. It is the reference the property test holds the
// pipeline to.
type refPipeline struct {
	primary *Alarmer
	veto    *Alarmer

	pending     []Alarm
	vetoCovered []int

	primaryExtent, vetoExtent int
	seen                      int
	suppressed                int
}

func newRefPipeline(t *testing.T, primary, veto detector.Detector) *refPipeline {
	t.Helper()
	pa, err := NewAlarmer(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	va, err := NewAlarmer(veto, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &refPipeline{primary: pa, veto: va, primaryExtent: primary.Extent(), vetoExtent: veto.Extent()}
}

func (p *refPipeline) push(sym alphabet.Symbol) ([]EscalatedAlarm, error) {
	p.seen++
	primaryAlarm, primaryRaised, err := p.primary.Push(sym)
	if err != nil {
		return nil, err
	}
	vetoAlarm, vetoRaised, err := p.veto.Push(sym)
	if err != nil {
		return nil, err
	}

	escalated := p.corroborate(primaryAlarm, primaryRaised, vetoAlarm, vetoRaised)
	p.expire()
	return escalated, nil
}

func (p *refPipeline) corroborate(primaryAlarm Alarm, primaryRaised bool, vetoAlarm Alarm, vetoRaised bool) []EscalatedAlarm {
	var escalated []EscalatedAlarm
	fresh := -1
	if primaryRaised {
		p.pending = append(p.pending, primaryAlarm)
		fresh = len(p.pending) - 1
	}
	freshEscalated := false
	if vetoRaised {
		p.vetoCovered = append(p.vetoCovered, vetoAlarm.Position)
		// Corroborate pending primaries overlapping this veto window.
		kept := p.pending[:0]
		for i, pa := range p.pending {
			if overlaps(pa.Position, p.primaryExtent, vetoAlarm.Position, p.vetoExtent) {
				escalated = append(escalated, EscalatedAlarm{Primary: pa, VetoPosition: vetoAlarm.Position})
				if i == fresh {
					freshEscalated = true
				}
			} else {
				kept = append(kept, pa)
			}
		}
		p.pending = kept
	}
	if primaryRaised && !freshEscalated {
		// A fresh primary may be corroborated by a recent veto window. It
		// survived the loop above (if any), so it is still pending's last
		// element.
		for _, vp := range p.vetoCovered {
			if overlaps(primaryAlarm.Position, p.primaryExtent, vp, p.vetoExtent) {
				escalated = append(escalated, EscalatedAlarm{Primary: primaryAlarm, VetoPosition: vp})
				p.pending = p.pending[:len(p.pending)-1]
				break
			}
		}
	}
	return escalated
}

func (p *refPipeline) expire() {
	horizon := p.seen - p.primaryExtent - p.vetoExtent
	kept := p.pending[:0]
	for _, pa := range p.pending {
		if pa.Position >= horizon {
			kept = append(kept, pa)
		} else {
			p.suppressed++
		}
	}
	p.pending = kept
	keptVeto := p.vetoCovered[:0]
	for _, vp := range p.vetoCovered {
		if vp >= horizon {
			keptVeto = append(keptVeto, vp)
		}
	}
	p.vetoCovered = keptVeto
}

// overlaps reports whether [aPos, aPos+aExt) and [bPos, bPos+bExt) share an
// element.
func overlaps(aPos, aExt, bPos, bExt int) bool {
	return aPos < bPos+bExt && bPos < aPos+aExt
}

// alarmCoverage and overlapsCovered are the batch overlap rule
// ensemble.Suppress applied before it became a fold of VetoPipeline, kept
// verbatim as the whole-stream reference.

// alarmCoverage marks every stream element covered by a suppressor alarm.
func alarmCoverage(responses []float64, extent int, threshold float64, streamLen int) ([]bool, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("ensemble: suppressor threshold %v outside (0,1]", threshold)
	}
	covered := make([]bool, streamLen)
	for _, a := range eval.Alarms(responses, threshold) {
		for i := a.Position; i < a.Position+extent && i < streamLen; i++ {
			covered[i] = true
		}
	}
	return covered, nil
}

// overlapsCovered reports whether any element of [pos, pos+extent) is
// covered by a suppressor alarm.
func overlapsCovered(covered []bool, pos, extent int) bool {
	for i := pos; i < pos+extent && i < len(covered); i++ {
		if covered[i] {
			return true
		}
	}
	return false
}

// randomCanned draws a detector of extent 1-8 over n symbols whose windows
// alarm independently with a random per-case density.
func randomCanned(src *rng.Source, name string, n int) *canned {
	extent := 1 + src.Intn(8)
	density := src.Float64()
	c := &canned{name: name, extent: extent, responses: make([]float64, seq.NumWindows(n, extent))}
	for i := range c.responses {
		if src.Float64() < density {
			c.responses[i] = 1
		} else {
			c.responses[i] = src.Float64() / 2
		}
	}
	return c
}

// TestVetoPipelineMatchesReference is the safety net under the
// corroboration stage: over random extents, alarm densities and stream
// lengths, every push escalates the same primaries in the same order as
// the reference state machine and suppresses as many, each escalation
// names the latest veto window (which overlaps its primary), and at the
// end of the stream the escalated set is exactly the batch overlap rule's.
func TestVetoPipelineMatchesReference(t *testing.T) {
	const cases = 12_000
	src := rng.New(20261017)
	for c := 0; c < cases; c++ {
		n := 1 + src.Intn(200)
		primary, veto := randomCanned(src, "primary", n), randomCanned(src, "veto", n)
		label := fmt.Sprintf("case %d (n=%d, extents %d/%d)", c, n, primary.extent, veto.extent)

		pipe, err := NewVetoPipeline(primary, veto, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefPipeline(t, primary, veto)
		lastVeto := -1
		var got []int
		for i := 0; i < n; i++ {
			if j := i + 1 - veto.extent; j >= 0 && veto.responses[j] >= 1 {
				lastVeto = j
			}
			esc, err := pipe.Push(0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.push(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(esc) != len(want) {
				t.Fatalf("%s push %d: escalated %+v, reference %+v", label, i, esc, want)
			}
			for k, e := range esc {
				if e.Primary != want[k].Primary {
					t.Fatalf("%s push %d: escalated %+v, reference %+v", label, i, esc, want)
				}
				if e.VetoPosition != lastVeto || !overlaps(e.Primary.Position, primary.extent, e.VetoPosition, veto.extent) {
					t.Fatalf("%s push %d: %+v names veto window %d, latest is %d", label, i, e, e.VetoPosition, lastVeto)
				}
				got = append(got, e.Primary.Position)
			}
			if pipe.Suppressed() != ref.suppressed {
				t.Fatalf("%s push %d: suppressed %d, reference %d", label, i, pipe.Suppressed(), ref.suppressed)
			}
		}

		covered, err := alarmCoverage(veto.responses, veto.extent, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		var batch []int
		for _, a := range eval.Alarms(primary.responses, 1) {
			if overlapsCovered(covered, a.Position, primary.extent) {
				batch = append(batch, a.Position)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(batch) {
			t.Fatalf("%s: escalated %v, batch overlap rule keeps %v", label, got, batch)
		}
	}
}
