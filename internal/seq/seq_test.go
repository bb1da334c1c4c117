package seq

import (
	"testing"
	"testing/quick"

	"adiv/internal/alphabet"
)

// mk builds a stream from ints for test readability.
func mk(vals ...int) Stream {
	s := make(Stream, len(vals))
	for i, v := range vals {
		s[i] = alphabet.Symbol(v)
	}
	return s
}

func TestNumWindows(t *testing.T) {
	tests := []struct {
		n, width, want int
	}{
		{0, 1, 0},
		{5, 0, 0},
		{5, -1, 0},
		{5, 6, 0},
		{5, 5, 1},
		{5, 1, 5},
		{10, 3, 8},
	}
	for _, tt := range tests {
		if got := NumWindows(tt.n, tt.width); got != tt.want {
			t.Errorf("NumWindows(%d, %d) = %d, want %d", tt.n, tt.width, got, tt.want)
		}
	}
}

func TestBuildRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, -3} {
		if _, err := Build(mk(1, 2, 3), w); err == nil {
			t.Errorf("Build with width %d succeeded", w)
		}
	}
}

func TestBuildCounts(t *testing.T) {
	// Stream: a b a b a — windows of width 2: ab ba ab ba.
	db, err := Build(mk(0, 1, 0, 1, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if db.Width() != 2 {
		t.Errorf("Width() = %d", db.Width())
	}
	if db.Total() != 4 {
		t.Errorf("Total() = %d, want 4", db.Total())
	}
	if db.Distinct() != 2 {
		t.Errorf("Distinct() = %d, want 2", db.Distinct())
	}
	if got := db.Count(mk(0, 1)); got != 2 {
		t.Errorf("Count(ab) = %d, want 2", got)
	}
	if got := db.Count(mk(1, 0)); got != 2 {
		t.Errorf("Count(ba) = %d, want 2", got)
	}
	if got := db.Count(mk(1, 1)); got != 0 {
		t.Errorf("Count(bb) = %d, want 0", got)
	}
	if got := db.Count(mk(0, 1, 0)); got != 0 {
		t.Errorf("Count of wrong-length sequence = %d, want 0", got)
	}
}

func TestBuildShortStream(t *testing.T) {
	db, err := Build(mk(1, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if db.Total() != 0 || db.Distinct() != 0 {
		t.Errorf("short stream produced %d windows, %d distinct", db.Total(), db.Distinct())
	}
	if db.RelFreq(mk(1, 2, 3, 4, 5)) != 0 {
		t.Errorf("RelFreq on empty DB should be 0")
	}
}

func TestForeignRareCommon(t *testing.T) {
	// 96 copies of "0 1" then 4 copies of "2 3": pairs (1,0),(0,1) are
	// common; (1,2),(2,3),(3,2) occur; (3,0) etc.
	var s Stream
	for i := 0; i < 96; i++ {
		s = append(s, 0, 1)
	}
	for i := 0; i < 4; i++ {
		s = append(s, 2, 3)
	}
	db, err := Build(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if db.IsForeign(mk(0, 1)) {
		t.Errorf("(0,1) classified foreign")
	}
	if !db.IsForeign(mk(0, 3)) {
		t.Errorf("(0,3) not classified foreign")
	}
	if db.IsForeign(mk(0, 1, 2)) {
		t.Errorf("wrong-length sequence classified foreign at width 2")
	}
	// (2,3) occurs 4 times of 199 windows ≈ 2%: rare at 5%, not at 1%.
	if !db.IsRare(mk(2, 3), 0.05) {
		t.Errorf("(2,3) not rare at cutoff 5%%")
	}
	if db.IsRare(mk(2, 3), 0.01) {
		t.Errorf("(2,3) rare at cutoff 1%%")
	}
	if db.IsRare(mk(0, 3), 0.05) {
		t.Errorf("foreign sequence classified rare")
	}

	rare := db.Rare(0.05)
	common := db.Common(0.05)
	if len(rare)+len(common) != db.Distinct() {
		t.Errorf("Rare+Common = %d+%d, want %d distinct", len(rare), len(common), db.Distinct())
	}
	for _, r := range rare {
		if !db.IsRare(r, 0.05) {
			t.Errorf("Rare() returned non-rare %v", r)
		}
	}
	for _, c := range common {
		if db.IsRare(c, 0.05) {
			t.Errorf("Common() returned rare %v", c)
		}
	}
}

func TestEachVisitsAll(t *testing.T) {
	db, err := Build(mk(0, 1, 2, 0, 1, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	total, distinct := 0, 0
	db.Each(func(w Stream, count int) {
		distinct++
		total += count
		if len(w) != 3 {
			t.Errorf("Each yielded sequence of length %d", len(w))
		}
	})
	if total != db.Total() || distinct != db.Distinct() {
		t.Errorf("Each visited %d/%d, want %d/%d", distinct, total, db.Distinct(), db.Total())
	}
}

func TestBytesRoundTrip(t *testing.T) {
	check := func(raw []byte) bool {
		s := FromBytes(raw)
		b := s.Bytes()
		if len(b) != len(raw) {
			return false
		}
		for i := range b {
			if b[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := mk(1, 2, 3)
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Errorf("Clone aliases the original")
	}
}

// TestCountsSumToTotal is the fundamental multiset invariant, checked over
// random streams.
func TestCountsSumToTotal(t *testing.T) {
	check := func(raw []byte, w uint8) bool {
		width := int(w%6) + 1
		s := FromBytes(raw)
		db, err := Build(s, width)
		if err != nil {
			return false
		}
		sum := 0
		db.Each(func(_ Stream, count int) { sum += count })
		return sum == db.Total() && db.Total() == NumWindows(len(s), width)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestEveryWindowContained: every window of the source stream must be
// contained in its own database with count >= 1.
func TestEveryWindowContained(t *testing.T) {
	check := func(raw []byte, w uint8) bool {
		width := int(w%5) + 1
		s := FromBytes(raw)
		db, err := Build(s, width)
		if err != nil {
			return false
		}
		for i := 0; i+width <= len(s); i++ {
			if !db.Contains(s[i : i+width]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func testStream(n int) Stream {
	s := make(Stream, n)
	for i := range s {
		s[i] = alphabet.Symbol((i*7 + i/3) % 8)
	}
	return s
}

// TestByteLookupsNoAlloc pins the allocation-free contract of the keyed
// byte lookups and of the batch lookup into a presized dst, which the
// detector score paths depend on.
func TestByteLookupsNoAlloc(t *testing.T) {
	s := testStream(5000)
	db, err := Build(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Bytes()
	dst := make([]float64, 0, len(b))
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i+8 <= len(b); i++ {
			w := b[i : i+8]
			if db.CountBytes(w) == 0 {
				t.Fatal("training window reported absent")
			}
			_ = db.IsRareBytes(w, 0.005)
			_ = db.IsForeignBytes(w)
			_ = db.RelFreqBytes(w)
		}
		dst = db.AppendCounts(b, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("byte lookups allocated %.1f times per run, want 0", allocs)
	}
}

// TestCountNoAlloc pins the stack-buffer fast path of the Stream-typed
// Count for grid-sized widths.
func TestCountNoAlloc(t *testing.T) {
	s := testStream(5000)
	db, err := Build(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := s[17:25]
	allocs := testing.AllocsPerRun(100, func() {
		if db.Count(w) == 0 {
			t.Fatal("training window reported absent")
		}
	})
	if allocs != 0 {
		t.Fatalf("Count allocated %.1f times per run, want 0", allocs)
	}
}

func TestByteLookupsMatchStreamLookups(t *testing.T) {
	s := testStream(3000)
	db, err := Build(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Bytes()
	for i := 0; i+5 <= len(enc); i++ {
		b := enc[i : i+5]
		w := s[i : i+5]
		if db.CountBytes(b) != db.Count(w) {
			t.Fatalf("window %d: CountBytes %d != Count %d", i, db.CountBytes(b), db.Count(w))
		}
		if db.ContainsBytes(b) != db.Contains(w) {
			t.Fatalf("window %d: ContainsBytes mismatch", i)
		}
		if db.IsForeignBytes(b) != db.IsForeign(w) {
			t.Fatalf("window %d: IsForeignBytes mismatch", i)
		}
		if db.IsRareBytes(b, 0.005) != db.IsRare(w, 0.005) {
			t.Fatalf("window %d: IsRareBytes mismatch", i)
		}
		if db.RelFreqBytes(b) != db.RelFreq(w) {
			t.Fatalf("window %d: RelFreqBytes mismatch", i)
		}
	}
	// Wrong-length and absent keys.
	if db.CountBytes([]byte{0, 1}) != 0 {
		t.Fatal("wrong-length key counted")
	}
	if db.CountBytes([]byte{9, 9, 9, 9, 9}) != 0 {
		t.Fatal("absent key counted")
	}
	if db.IsForeignBytes([]byte{0, 1}) {
		t.Fatal("wrong-length key reported foreign")
	}
}
