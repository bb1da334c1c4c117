package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"adiv/internal/obs"
)

// TestVerifyJournal runs the journal check over canned one-tenant journals:
// an injection at 100 of size 4 under window 6 is detected by a record
// positioned in [94, 110].
func TestVerifyJournal(t *testing.T) {
	rec := func(pos int, disposition string) obs.AlertRecord {
		return obs.AlertRecord{Tenant: "load-0", Position: pos, Detector: "markov", Score: 1, Threshold: 0.98, Disposition: disposition}
	}
	raised, escalated, suppressed := obs.DispositionRaised, obs.DispositionEscalated, obs.DispositionSuppressed
	for _, c := range []struct {
		name string
		recs []obs.AlertRecord
		pass bool
	}{
		{"plain alarm", []obs.AlertRecord{rec(102, raised)}, true},
		{"raised then suppressed", []obs.AlertRecord{rec(102, raised), rec(102, suppressed)}, false},
		{"raised then escalated", []obs.AlertRecord{rec(102, raised), rec(102, escalated)}, true},
		{"suppressed elsewhere", []obs.AlertRecord{rec(102, raised), rec(97, raised), rec(97, suppressed)}, true},
		{"outside the span", []obs.AlertRecord{rec(20, raised)}, false},
		{"another tenant", []obs.AlertRecord{{Tenant: "load-1", Position: 102, Disposition: raised}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "alerts.ndjson")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			j := obs.NewAlertJournal(f)
			for _, r := range c.recs {
				j.Append(r)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err = verifyJournal(&out, path, 1, 100, 4, 6)
			if (err == nil) != c.pass {
				t.Fatalf("verifyJournal err %v, want pass %v; output:\n%s", err, c.pass, out.String())
			}
		})
	}
}
