package seq

import (
	"slices"
	"testing"
)

// FuzzMinimalityShortcut cross-checks the two-subsequence minimality
// shortcut against the exhaustive definition on fuzzer-chosen streams and
// candidates.
func FuzzMinimalityShortcut(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 2}, []byte{0, 1, 2})
	f.Add([]byte{2, 3, 2, 4, 2}, []byte{2, 3, 4})
	f.Add([]byte{0, 0, 0}, []byte{0, 0})
	f.Add([]byte{}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, streamRaw, candRaw []byte) {
		if len(candRaw) > 8 || len(streamRaw) > 256 {
			return
		}
		stream := FromBytes(streamRaw)
		candidate := FromBytes(candRaw)
		ix := NewIndex(stream)
		shortcut, err := ix.IsMinimalForeign(candidate)
		if err != nil {
			t.Fatalf("IsMinimalForeign: %v", err)
		}
		if len(candidate) < 2 {
			if shortcut {
				t.Fatalf("short candidate classified minimal foreign")
			}
			return
		}
		foreign, err := ix.IsForeign(candidate)
		if err != nil {
			t.Fatal(err)
		}
		proper, err := ix.ProperSubsequencesOccur(candidate)
		if err != nil {
			t.Fatal(err)
		}
		if shortcut != (foreign && proper) {
			t.Fatalf("shortcut %v, exhaustive %v (stream %v, candidate %v)",
				shortcut, foreign && proper, stream, candidate)
		}
	})
}

// FuzzBuildCounts holds the sequence database to the map-keyed reference
// (db_reference_test.go) on arbitrary streams at widths 1–24, packed and
// hashed tags alike: totals, every count, a few near misses, iteration
// and the sorted selections must agree, and the batch lookup must count
// every window of the stream and of the near misses as CountBytes does.
func FuzzBuildCounts(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte("abcdefghijabcdefghijabcdefghijk"), uint8(9))
	f.Fuzz(func(t *testing.T, raw []byte, widthRaw uint8) {
		width := int(widthRaw%24) + 1
		stream := FromBytes(raw)
		db, err := Build(stream, width)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		ref, err := refBuild(stream, width)
		if err != nil {
			t.Fatalf("refBuild: %v", err)
		}
		if db.Total() != NumWindows(len(raw), width) {
			t.Fatalf("total %d, windows %d", db.Total(), NumWindows(len(raw), width))
		}
		// Extra probes, mostly absent: windows with their last byte bumped,
		// near misses that share all but the last byte of a present tag.
		var extra [][]byte
		for i := 0; i+width <= len(raw) && len(extra) < 8; i += width {
			b := append([]byte(nil), raw[i:i+width]...)
			b[width-1]++
			extra = append(extra, b)
		}
		refCheck(t, db, ref, extra)
		batchCheck(t, db, raw)
		batchCheck(t, db, slices.Concat(extra...))
	})
}
