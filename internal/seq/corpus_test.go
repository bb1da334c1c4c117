package seq

import (
	"sync"
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/obs"
)

func TestCorpusDBMatchesDirectBuild(t *testing.T) {
	stream := Stream{0, 1, 2, 3, 0, 1, 2, 3, 0, 3}
	c := NewCorpus(stream)
	for width := 1; width <= 4; width++ {
		cached, err := c.DB(width)
		if err != nil {
			t.Fatalf("DB(%d): %v", width, err)
		}
		direct, err := Build(stream, width)
		if err != nil {
			t.Fatalf("Build(%d): %v", width, err)
		}
		if cached.Total() != direct.Total() || cached.Distinct() != direct.Distinct() {
			t.Errorf("width %d: cached DB (total %d, distinct %d) differs from direct build (total %d, distinct %d)",
				width, cached.Total(), cached.Distinct(), direct.Total(), direct.Distinct())
		}
	}
}

func TestCorpusBuildsEachWidthOnce(t *testing.T) {
	c := NewCorpus(Stream{0, 1, 2, 3, 0, 1, 2, 3})
	var first [5]*DB
	for width := 1; width <= 4; width++ {
		db, err := c.DB(width)
		if err != nil {
			t.Fatal(err)
		}
		first[width] = db
	}
	for round := 0; round < 3; round++ {
		for width := 1; width <= 4; width++ {
			db, err := c.DB(width)
			if err != nil {
				t.Fatal(err)
			}
			if db != first[width] {
				t.Fatalf("width %d returned a different *DB on reuse", width)
			}
		}
	}
	hits, misses := c.Stats()
	if misses != 4 {
		t.Errorf("misses = %d, want 4 (one build per distinct width)", misses)
	}
	if hits != 12 {
		t.Errorf("hits = %d, want 12", hits)
	}
}

func TestCorpusSingleflightUnderConcurrency(t *testing.T) {
	var stream Stream
	for i := 0; i < 2000; i++ {
		stream = append(stream, alphabet.Symbol(i%7))
	}
	c := NewCorpus(stream)
	const goroutines = 16
	widths := []int{2, 3, 5, 8}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(widths))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range widths {
				if _, err := c.DB(w); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := c.Stats()
	if misses != int64(len(widths)) {
		t.Errorf("misses = %d, want %d: concurrent same-width requests must share one build", misses, len(widths))
	}
	if hits != int64(goroutines*len(widths))-misses {
		t.Errorf("hits = %d, want %d", hits, int64(goroutines*len(widths))-misses)
	}
}

func TestCorpusRejectsNonPositiveWidth(t *testing.T) {
	c := NewCorpus(Stream{0, 1, 2})
	for _, w := range []int{0, -1} {
		if _, err := c.DB(w); err == nil {
			t.Errorf("DB(%d) accepted", w)
		}
	}
	if _, misses := c.Stats(); misses != 0 {
		t.Errorf("invalid widths counted as builds")
	}
}

func TestCorpusAlphabetSize(t *testing.T) {
	if got := NewCorpus(Stream{0, 4, 2, 4, 1}).AlphabetSize(); got != 5 {
		t.Errorf("AlphabetSize() = %d, want 5", got)
	}
	if got := NewCorpus(nil).AlphabetSize(); got != 0 {
		t.Errorf("empty stream AlphabetSize() = %d, want 0", got)
	}
}

func TestCorpusContains(t *testing.T) {
	c := NewCorpus(Stream{0, 1, 2, 3, 0, 1})
	cases := []struct {
		w    Stream
		want bool
	}{
		{Stream{}, true},
		{Stream{1, 2, 3}, true},
		{Stream{3, 2, 1}, false},
	}
	for _, tc := range cases {
		got, err := c.Contains(tc.w)
		if err != nil {
			t.Fatalf("Contains(%v): %v", tc.w, err)
		}
		if got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.w, got, tc.want)
		}
	}
}

func TestCorpusCloneIsolatesStream(t *testing.T) {
	orig := Stream{0, 1, 2, 3, 0, 1, 2, 3}
	c := NewCorpus(orig)
	orig[0] = 3 // caller mutation after construction
	db, err := c.DB(2)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Contains(Stream{0, 1}) {
		t.Errorf("cache built from mutated caller stream: (0 1) missing")
	}
}

func TestCorpusInstrumentation(t *testing.T) {
	reg := obs.New()
	c := NewCorpus(Stream{0, 1, 2, 3, 0, 1, 2, 3})
	c.Instrument(reg)
	for _, w := range []int{2, 3, 2, 2, 3} {
		if _, err := c.DB(w); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("seq/corpus/miss").Value(); got != 2 {
		t.Errorf("seq/corpus/miss = %d, want 2", got)
	}
	if got := reg.Counter("seq/corpus/hit").Value(); got != 3 {
		t.Errorf("seq/corpus/hit = %d, want 3", got)
	}
	if count := reg.Sketch("seq/corpus/build").Count(); count != 2 {
		t.Errorf("seq/corpus/build recorded %d builds, want 2", count)
	}
	if got := reg.Gauge("seq/corpus/widths").Value(); got != 2 {
		t.Errorf("seq/corpus/widths = %v, want 2", got)
	}
	want := []int{2, 3}
	got := c.Widths()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Widths() = %v, want %v", got, want)
	}
}
