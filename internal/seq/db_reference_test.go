package seq

// The map-keyed sequence database retained verbatim as the reference for
// the flat open-addressed table: refDB and refBuild are the exact DB and
// Build that preceded the table (modulo renamed identifiers), and the tests
// hold the table's counts, totals, iteration and sorted selections to them
// on seeded random streams over packed (width ≤ 8) and hashed widths.

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// refDB is a sequence database for one fixed window width: the multiset of all
// width-length windows of a stream, with occurrence counts. It answers the
// membership and frequency queries behind every detector and every
// data-synthesis verification step.
//
// A DB is immutable after Build and safe for concurrent readers.
type refDB struct {
	width int
	total int
	// counts stores an out-of-line counter per distinct window. The
	// indirection is what makes Build allocate per *distinct* sequence
	// rather than per window: incrementing through the pointer needs only
	// an allocation-free map read (`m[string(b)]` compiles to a no-copy
	// lookup), where a map[string]int would re-materialize the key string
	// on every `m[string(b)]++`.
	counts map[string]*int
}

// refBuild slides a window of the given width across the stream and records
// every window with its occurrence count. It returns an error for a
// non-positive width; a stream shorter than the width yields an empty DB.
func refBuild(stream Stream, width int) (*refDB, error) {
	if width <= 0 {
		return nil, fmt.Errorf("seq: non-positive window width %d", width)
	}
	n := NumWindows(len(stream), width)
	db := &refDB{
		width:  width,
		total:  n,
		counts: make(map[string]*int, min(n, 1<<16)),
	}
	b := stream.Bytes()
	for i := 0; i < n; i++ {
		if p := db.counts[string(b[i:i+width])]; p != nil {
			*p++
		} else {
			p = new(int)
			*p = 1
			db.counts[string(b[i:i+width])] = p
		}
	}
	return db, nil
}

// Width returns the window width the database was built for.
func (db *refDB) Width() int { return db.width }

// Total returns the total number of windows recorded (with multiplicity).
func (db *refDB) Total() int { return db.total }

// Distinct returns the number of distinct sequences in the database.
func (db *refDB) Distinct() int { return len(db.counts) }

// Count returns the number of occurrences of w. Sequences of the wrong
// length never occur and count zero.
func (db *refDB) Count(w Stream) int {
	if len(w) != db.width {
		return 0
	}
	// Encode into a stack buffer so the common widths (the evaluation grid
	// tops out at 16) query without allocating; CountBytes documents the
	// fully allocation-free path for callers that already hold bytes.
	var tmp [64]byte
	if db.width <= len(tmp) {
		for i, sym := range w {
			tmp[i] = byte(sym)
		}
		if p := db.counts[string(tmp[:db.width])]; p != nil {
			return *p
		}
		return 0
	}
	return db.CountBytes(w.Bytes())
}

// CountBytes returns the number of occurrences of the byte-encoded window b
// (as produced by Stream.Bytes). It never allocates: the hot score loops of
// the window detectors slice one encoded test stream and query every window
// through here. Sequences of the wrong length count zero.
func (db *refDB) CountBytes(b []byte) int {
	if len(b) != db.width {
		return 0
	}
	if p := db.counts[string(b)]; p != nil {
		return *p
	}
	return 0
}

// Contains reports whether w occurs at least once.
func (db *refDB) Contains(w Stream) bool { return db.Count(w) > 0 }

// ContainsBytes reports whether the byte-encoded window b occurs at least
// once, without allocating.
func (db *refDB) ContainsBytes(b []byte) bool { return db.CountBytes(b) > 0 }

// RelFreq returns the relative frequency of w among all recorded windows,
// in [0,1]. An empty database yields 0.
func (db *refDB) RelFreq(w Stream) float64 {
	if db.total == 0 {
		return 0
	}
	return float64(db.Count(w)) / float64(db.total)
}

// RelFreqBytes is RelFreq for a byte-encoded window, without allocating.
func (db *refDB) RelFreqBytes(b []byte) float64 {
	if db.total == 0 {
		return 0
	}
	return float64(db.CountBytes(b)) / float64(db.total)
}

// IsForeign reports whether w (of the database's width) never occurs:
// the paper's definition of a foreign sequence at this width.
func (db *refDB) IsForeign(w Stream) bool {
	return len(w) == db.width && !db.Contains(w)
}

// IsForeignBytes is IsForeign for a byte-encoded window, without
// allocating.
func (db *refDB) IsForeignBytes(b []byte) bool {
	return len(b) == db.width && db.CountBytes(b) == 0
}

// IsRare reports whether w occurs with relative frequency in (0, cutoff).
// A foreign sequence is not rare: it does not occur at all.
func (db *refDB) IsRare(w Stream, cutoff float64) bool {
	c := db.Count(w)
	return c > 0 && float64(c) < cutoff*float64(db.total)
}

// IsRareBytes is IsRare for a byte-encoded window, without allocating.
func (db *refDB) IsRareBytes(b []byte, cutoff float64) bool {
	c := db.CountBytes(b)
	return c > 0 && float64(c) < cutoff*float64(db.total)
}

// Each calls fn for every distinct sequence with its count, in unspecified
// order. fn must not retain the Stream beyond the call.
func (db *refDB) Each(fn func(w Stream, count int)) {
	for k, c := range db.counts {
		fn(FromBytes([]byte(k)), *c)
	}
}

// EachKey calls fn for every distinct sequence with its count, in
// unspecified order, passing the byte-encoded window as a string — the
// allocation-free counterpart of Each for callers (e.g. the neural-network
// trainer) that consume the encoded form directly.
func (db *refDB) EachKey(fn func(key string, count int)) {
	for k, c := range db.counts {
		fn(k, *c)
	}
}

// Rare returns all distinct sequences whose relative frequency is below
// cutoff, sorted lexicographically for determinism.
func (db *refDB) Rare(cutoff float64) []Stream {
	keys := make([]string, 0)
	limit := cutoff * float64(db.total)
	for k, c := range db.counts {
		if float64(*c) < limit {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]Stream, len(keys))
	for i, k := range keys {
		out[i] = FromBytes([]byte(k))
	}
	return out
}

// Common returns all distinct sequences whose relative frequency is at least
// cutoff, sorted lexicographically for determinism.
func (db *refDB) Common(cutoff float64) []Stream {
	keys := make([]string, 0)
	limit := cutoff * float64(db.total)
	for k, c := range db.counts {
		if float64(*c) >= limit {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]Stream, len(keys))
	for i, k := range keys {
		out[i] = FromBytes([]byte(k))
	}
	return out
}

// refCheck holds db to the reference built over the same stream: Total,
// Distinct, the count of every present window and of each extra probe
// (absent windows, mostly) through each lookup, Each and EachKey as
// multisets, and Rare and Common at several cutoffs.
func refCheck(t *testing.T, db *DB, ref *refDB, extra [][]byte) {
	t.Helper()
	if db.Width() != ref.Width() || db.Total() != ref.Total() || db.Distinct() != ref.Distinct() {
		t.Fatalf("width/total/distinct %d/%d/%d, reference %d/%d/%d",
			db.Width(), db.Total(), db.Distinct(), ref.Width(), ref.Total(), ref.Distinct())
	}
	const cutoff = 0.01
	probe := func(b []byte) {
		w := FromBytes(b)
		if got, want := db.CountBytes(b), ref.CountBytes(b); got != want {
			t.Fatalf("CountBytes(%v) = %d, reference %d", b, got, want)
		}
		if got, want := db.Count(w), ref.Count(w); got != want {
			t.Fatalf("Count(%v) = %d, reference %d", w, got, want)
		}
		if db.RelFreqBytes(b) != ref.RelFreqBytes(b) || db.IsForeign(w) != ref.IsForeign(w) ||
			db.IsRareBytes(b, cutoff) != ref.IsRareBytes(b, cutoff) {
			t.Fatalf("predicates of %v disagree with the reference", w)
		}
	}
	ref.EachKey(func(key string, _ int) { probe([]byte(key)) })
	for _, b := range extra {
		probe(b)
	}

	multiset := func(each func(fn func(key string, count int))) map[string]int {
		m := make(map[string]int)
		each(func(key string, count int) { m[key] += count })
		return m
	}
	want := multiset(ref.EachKey)
	if got := multiset(db.EachKey); !maps.Equal(got, want) {
		t.Fatalf("EachKey yields %d keys, reference %d; multisets differ", len(got), len(want))
	}
	viaEach := multiset(func(fn func(string, int)) {
		db.Each(func(w Stream, count int) { fn(string(w.Bytes()), count) })
	})
	if !maps.Equal(viaEach, want) {
		t.Fatalf("Each yields %d keys, reference %d; multisets differ", len(viaEach), len(want))
	}

	for _, c := range []float64{0, 1e-4, 0.005, 0.05, 0.5, 1.01} {
		if got, want := db.Rare(c), ref.Rare(c); !streamsEqual(got, want) {
			t.Fatalf("Rare(%v) = %d sequences, reference %d", c, len(got), len(want))
		}
		if got, want := db.Common(c), ref.Common(c); !streamsEqual(got, want) {
			t.Fatalf("Common(%v) = %d sequences, reference %d", c, len(got), len(want))
		}
	}
}

// batchCheck holds the batch lookup to CountBytes on every window of b:
// AppendCounts must append one count per window, in order, after a prefix
// that survives.
func batchCheck(t *testing.T, db *DB, b []byte) {
	t.Helper()
	got := db.AppendCounts(b, []float64{-1})
	if len(got) != 1+NumWindows(len(b), db.Width()) || got[0] != -1 {
		t.Fatalf("AppendCounts over %d bytes at width %d: %d values, prefix %v",
			len(b), db.Width(), len(got), got[:min(1, len(got))])
	}
	for i, c := range got[1:] {
		if want := db.CountBytes(b[i : i+db.Width()]); c != float64(want) {
			t.Fatalf("AppendCounts window %d %v = %v, CountBytes %d", i, b[i:i+db.Width()], c, want)
		}
	}
}

func streamsEqual(a, b []Stream) bool {
	return slices.EqualFunc(a, b, func(x, y Stream) bool { return slices.Equal(x, y) })
}

// absentWindows draws up to n random width-length windows over k symbols
// that the reference does not hold.
func absentWindows(src *rand.Rand, ref *refDB, width, k, n int) [][]byte {
	var out [][]byte
	for try := 0; try < 4*n && len(out) < n; try++ {
		b := make([]byte, width)
		for i := range b {
			b[i] = byte(src.IntN(k))
		}
		if ref.CountBytes(b) == 0 {
			out = append(out, b)
		}
	}
	return out
}

// TestDBMatchesReference builds the table and the reference over seeded
// random streams at widths 1–24 (packed and hashed tags) and alphabets of
// 2, 8 and 256 symbols, and requires every query to agree, and the batch
// lookup to agree with CountBytes over the stream and over a buffer of
// absent windows.
func TestDBMatchesReference(t *testing.T) {
	for _, k := range []int{2, 8, 256} {
		for width := 1; width <= 24; width++ {
			t.Run(fmt.Sprintf("k=%d/w=%d", k, width), func(t *testing.T) {
				src := rand.New(rand.NewPCG(uint64(k), uint64(width)))
				for _, n := range []int{0, width - 1, width, 3 * width, 2000} {
					raw := make([]byte, n)
					for i := range raw {
						raw[i] = byte(src.IntN(k))
					}
					// Repeat a stretch so long windows recur too.
					if n > 400 {
						copy(raw[n-200:], raw[100:300])
					}
					stream := FromBytes(raw)
					db, err := Build(stream, width)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := refBuild(stream, width)
					if err != nil {
						t.Fatal(err)
					}
					absent := absentWindows(src, ref, width, k, 32)
					refCheck(t, db, ref, absent)
					batchCheck(t, db, raw)
					batchCheck(t, db, slices.Concat(absent...))
				}
			})
		}
	}
}
