package detector

import (
	"errors"
	"testing"

	"adiv/internal/seq"
)

func TestValidateWindow(t *testing.T) {
	if err := ValidateWindow(1); err != nil {
		t.Errorf("ValidateWindow(1) = %v", err)
	}
	for _, w := range []int{0, -5} {
		if err := ValidateWindow(w); err == nil {
			t.Errorf("ValidateWindow(%d) accepted", w)
		}
	}
}

func TestCheckScorable(t *testing.T) {
	if err := CheckScorable(false, 3, make(seq.Stream, 10)); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained: %v, want ErrNotTrained", err)
	}
	if err := CheckScorable(true, 5, make(seq.Stream, 4)); !errors.Is(err, ErrStreamTooShort) {
		t.Errorf("short stream: %v, want ErrStreamTooShort", err)
	}
	if err := CheckScorable(true, 5, make(seq.Stream, 5)); err != nil {
		t.Errorf("exact-length stream rejected: %v", err)
	}
}
