package lbr

// This file retains the full-profile scan verbatim as a test-only reference
// for the exact-member lookup in AppendWindowScores: refScore is the kernel
// as it was before the lookup (every window scans the whole profile, with
// an early break at the maximum), driven by the batch loop. The property
// test asserts that Score and a NewStream fold equal it bit for bit on
// random profiles and windows: members, one-edge-mismatch near-members,
// fully foreign windows, and a training stream too short for one window,
// after both Train and TrainCorpus.

import (
	"fmt"
	"math"
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/rng"
	"adiv/internal/seq"
)

// refProfile is the retained setProfile: the distinct training windows,
// byte-encoded, in lexicographic order.
func refProfile(train seq.Stream, window int) ([][]byte, error) {
	db, err := seq.Build(train, window)
	if err != nil {
		return nil, err
	}
	normal := make([][]byte, 0, db.Distinct())
	for _, w := range db.Common(0) {
		normal = append(normal, w.Bytes())
	}
	return normal, nil
}

// refScoreWindow is the retained full scan.
func refScoreWindow(normal [][]byte, window int, w []byte) float64 {
	simMax := float64(MaxSimilarity(window))
	best := 0
	for _, normal := range normal {
		if s := similarityBytes(normal, w); s > best {
			best = s
			if best == int(simMax) {
				break
			}
		}
	}
	return 1 - float64(best)/simMax
}

func refScore(train, test seq.Stream, window int) ([]float64, error) {
	normal, err := refProfile(train, window)
	if err != nil {
		return nil, err
	}
	b := test.Bytes()
	out := make([]float64, seq.NumWindows(len(test), window))
	for i := range out {
		out[i] = refScoreWindow(normal, window, b[i:i+window])
	}
	return out, nil
}

func randStream(src *rng.Source, n, k int) seq.Stream {
	s := make(seq.Stream, n)
	for i := range s {
		s[i] = alphabet.Symbol(src.Intn(k))
	}
	return s
}

// testStream concatenates windows of every kind the kernel distinguishes,
// so the stream's windows are members, near-members, foreign windows and
// the mixtures straddling their seams.
func testStream(src *rng.Source, train seq.Stream, window, k int) seq.Stream {
	var test seq.Stream
	n := seq.NumWindows(len(train), window)
	for range 12 {
		switch kind := src.Intn(4); {
		case kind == 0 && n > 0: // a profile member
			i := src.Intn(n)
			test = append(test, train[i:i+window]...)
		case kind == 1 && n > 0: // a member with one edge position changed
			i := src.Intn(n)
			w := train[i : i+window].Clone()
			edge := 0
			if src.Intn(2) == 1 {
				edge = window - 1
			}
			w[edge] = alphabet.Symbol((int(w[edge]) + 1 + src.Intn(k)) % (k + 1))
			test = append(test, w...)
		case kind == 2: // symbols outside the training alphabet
			for range window {
				test = append(test, alphabet.Symbol(k+src.Intn(8)))
			}
		default: // random over the training alphabet
			test = append(test, randStream(src, window, k)...)
		}
	}
	return test
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func fold(t *testing.T, d *Detector, test seq.Stream) []float64 {
	t.Helper()
	st, err := d.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for i := range test {
		if out, err = st.Push(test[i:i+1], out); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestScoreMatchesReferenceScan(t *testing.T) {
	src := rng.New(19)
	var members, partial, foreign int
	for c := range 400 {
		window := 1 + c%15
		k := 1 + src.Intn(64)
		trainLen := src.Intn(300)
		if c%10 == 0 {
			trainLen = src.Intn(window) // too short for one window
		}
		// A small alphabet over a long stream gives a profile dense with
		// shared prefixes; a large one gives a sparse profile.
		train := randStream(src, trainLen, k)
		test := testStream(src, train, window, k)
		t.Run(fmt.Sprintf("dw%d_k%d_n%d", window, k, trainLen), func(t *testing.T) {
			want, err := refScore(train, test, window)
			if err != nil {
				t.Fatal(err)
			}
			d, err := New(window)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Train(train); err != nil {
				t.Fatal(err)
			}
			got, err := d.Score(test)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("Score = %v, reference %v", got, want)
			}
			for _, r := range want {
				switch r {
				case 0:
					members++
				case 1:
					foreign++
				default:
					partial++
				}
			}
			if got := fold(t, d, test); !sameBits(got, want) {
				t.Fatalf("stream fold = %v, reference %v", got, want)
			}
			shared, err := New(window)
			if err != nil {
				t.Fatal(err)
			}
			if err := shared.TrainCorpus(seq.NewCorpus(train)); err != nil {
				t.Fatal(err)
			}
			if got, err := shared.Score(test); err != nil || !sameBits(got, want) {
				t.Fatalf("Score after TrainCorpus = %v (%v), reference %v", got, err, want)
			}
		})
	}
	if members == 0 || partial == 0 || foreign == 0 {
		t.Errorf("cases cover %d member, %d partial and %d disjoint windows; want all three", members, partial, foreign)
	}
}
