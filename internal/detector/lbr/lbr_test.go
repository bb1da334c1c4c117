package lbr

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

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

// TestFigure7Similarity pins the paper's worked example: two identical
// size-5 sequences score 15; the same pair with only the final element
// mismatched scores 10.
func TestFigure7Similarity(t *testing.T) {
	normal := mk(0, 1, 2, 3, 4)
	identical, err := Similarity(normal, normal)
	if err != nil {
		t.Fatal(err)
	}
	if identical != 15 {
		t.Errorf("identical similarity = %d, want 15", identical)
	}
	if MaxSimilarity(5) != 15 {
		t.Errorf("MaxSimilarity(5) = %d", MaxSimilarity(5))
	}
	foreign := mk(0, 1, 2, 3, 0)
	weak, err := Similarity(normal, foreign)
	if err != nil {
		t.Fatal(err)
	}
	if weak != 10 {
		t.Errorf("edge-mismatch similarity = %d, want 10", weak)
	}
}

func TestSimilarityWeights(t *testing.T) {
	weights, total, err := SimilarityWeights(mk(0, 1, 2, 3, 4), mk(0, 9, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 1, 2, 3}
	for i := range want {
		if weights[i] != want[i] {
			t.Errorf("weights = %v, want %v", weights, want)
			break
		}
	}
	if total != 7 {
		t.Errorf("total = %d, want 7", total)
	}
}

func TestSimilarityMismatchedLengths(t *testing.T) {
	if _, err := Similarity(mk(1, 2), mk(1, 2, 3)); err == nil {
		t.Errorf("length mismatch accepted")
	}
	if _, _, err := SimilarityWeights(mk(1), mk(1, 2)); err == nil {
		t.Errorf("length mismatch accepted by SimilarityWeights")
	}
}

func TestSimilarityBounds(t *testing.T) {
	check := func(aRaw, bRaw []byte) bool {
		n := len(aRaw)
		if len(bRaw) < n {
			n = len(bRaw)
		}
		if n == 0 || n > 32 {
			return true
		}
		a := seq.FromBytes(aRaw[:n])
		b := seq.FromBytes(bRaw[:n])
		sim, err := Similarity(a, b)
		if err != nil {
			return false
		}
		return sim >= 0 && sim <= MaxSimilarity(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilaritySymmetry(t *testing.T) {
	check := func(raw []byte) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a := seq.FromBytes(raw[:half])
		b := seq.FromBytes(raw[half : 2*half])
		ab, err := Similarity(a, b)
		if err != nil {
			return false
		}
		ba, err := Similarity(b, a)
		if err != nil {
			return false
		}
		return ab == ba
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestAdjacencyBias(t *testing.T) {
	// The same number of matches scores higher when the matches are
	// adjacent: that bias is the root of the paper's L&B blindness result.
	base := mk(0, 0, 0, 0, 0, 0)
	adjacent := mk(0, 0, 0, 1, 1, 1)  // 3 adjacent matches: 1+2+3 = 6
	scattered := mk(0, 1, 0, 1, 0, 1) // 3 scattered matches: 1+1+1 = 3
	sa, err := Similarity(base, adjacent)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Similarity(base, scattered)
	if err != nil {
		t.Fatal(err)
	}
	if sa != 6 || ss != 3 {
		t.Errorf("adjacent %d (want 6), scattered %d (want 3)", sa, ss)
	}
}

func TestNewValidatesWindow(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Errorf("New(0) succeeded")
	}
	d, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Window() != 4 || d.Extent() != 4 || d.Name() != "lb" {
		t.Errorf("metadata: %s window %d extent %d", d.Name(), d.Window(), d.Extent())
	}
}

func TestScoreBeforeTrain(t *testing.T) {
	d, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Score(mk(1, 2, 3)); !errors.Is(err, detector.ErrNotTrained) {
		t.Errorf("Score before Train: %v", err)
	}
}

func TestScoreAgainstMostSimilar(t *testing.T) {
	d, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	// Training 1 2 3 1 2 3 1: windows 123, 231, 312.
	if err := d.Train(mk(1, 2, 3, 1, 2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if d.NormalCount() != 3 {
		t.Errorf("NormalCount() = %d, want 3", d.NormalCount())
	}
	// Test window 1 2 4: best match 1 2 3 gives weights 1,2,0 → 3 of 6.
	responses, err := d.Score(mk(1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := responses[0], 1-3.0/6; got != want {
		t.Errorf("response = %v, want %v", got, want)
	}
	// An exactly normal window scores 0.
	responses, err = d.Score(mk(2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if responses[0] != 0 {
		t.Errorf("normal window response = %v, want 0", responses[0])
	}
}

// TestMembersSkipProfileScan pins the batch kernel's member shortcut: a
// window the training DB holds scores 0 from the lookup alone, and only
// the other windows scan the profile. With the profile emptied behind the
// kernel's back, a scan can only answer 1, so a member scoring anything
// but 0 was scanned.
func TestMembersSkipProfileScan(t *testing.T) {
	d, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(mk(1, 2, 3, 1, 2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	d.normal = [][]byte{}
	// Windows 123, 231, 312 are members; 124 is not.
	responses, err := d.Score(mk(1, 2, 3, 1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0, 0, 1}; !slices.Equal(responses, want) {
		t.Errorf("responses = %v, want %v", responses, want)
	}
}

func TestMaximalResponseRequiresTotalMismatch(t *testing.T) {
	d, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(mk(0, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	// Window 2 3 shares no position with 01 or 10: response exactly 1.
	responses, err := d.Score(mk(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if responses[0] != 1 {
		t.Errorf("fully mismatching window response = %v, want 1", responses[0])
	}
	// Window 0 3 matches 01 at position 0: response < 1.
	responses, err = d.Score(mk(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if responses[0] >= 1 {
		t.Errorf("partially matching window response = %v, want < 1", responses[0])
	}
}

func TestResponsesInUnitInterval(t *testing.T) {
	check := func(trainRaw, testRaw []byte, wRaw uint8) bool {
		w := int(wRaw%4) + 1
		train := seq.FromBytes(trainRaw)
		test := seq.FromBytes(testRaw)
		if len(train) < w || len(test) < w {
			return true
		}
		d, err := New(w)
		if err != nil {
			return false
		}
		if err := d.Train(train); err != nil {
			return false
		}
		responses, err := d.Score(test)
		if err != nil {
			return false
		}
		for _, r := range responses {
			if r < 0 || r > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
