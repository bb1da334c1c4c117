// Package seq provides the fixed-length-sequence machinery that the entire
// evaluation rests on: sliding windows over symbol streams, per-width
// sequence databases with occurrence counts, and the foreignness, rarity and
// minimality predicates of Tan & Maxion's methodology.
//
// Terminology (paper, Section 5.1):
//
//   - A sequence of length N is "foreign" with respect to a training stream
//     if every symbol is in the training alphabet but the length-N sequence
//     itself never occurs in the training stream.
//   - A sequence is "rare" if its relative frequency among same-length
//     windows of the training stream is below a cutoff (0.5% in the paper).
//   - A "minimal foreign sequence" (MFS) is a foreign sequence all of whose
//     proper contiguous subsequences occur in the training stream: a foreign
//     sequence containing no smaller foreign sequence.
package seq

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"adiv/internal/alphabet"
)

// Stream is a stream of categorical symbols, the unit of data every detector
// trains on and scores.
type Stream []alphabet.Symbol

// Clone returns an independent copy of the stream.
func (s Stream) Clone() Stream {
	out := make(Stream, len(s))
	copy(out, s)
	return out
}

// Bytes returns the stream as a byte slice usable for map keying. The result
// aliases freshly allocated memory, never the stream itself.
func (s Stream) Bytes() []byte {
	b := make([]byte, len(s))
	for i, sym := range s {
		b[i] = byte(sym)
	}
	return b
}

// FromBytes converts a byte-encoded window back to a Stream.
func FromBytes(b []byte) Stream {
	s := make(Stream, len(b))
	for i, c := range b {
		s[i] = alphabet.Symbol(c)
	}
	return s
}

// NumWindows returns the number of width-sized windows in a stream of length
// n: max(0, n-width+1).
func NumWindows(n, width int) int {
	if width <= 0 || n < width {
		return 0
	}
	return n - width + 1
}

// DB is a sequence database for one fixed window width: the multiset of all
// width-length windows of a stream, with occurrence counts. It answers the
// membership and frequency queries behind every detector and every
// data-synthesis verification step.
//
// The windows live in one flat open-addressed table. A window of at most 8
// symbols is its own 64-bit tag, its bytes packed little-endian, so a tag
// match is an exact match and a probe compares no bytes; a longer window's
// tag is a hash, and a tag match is confirmed against the window's bytes.
// A window's home slot is the top bits of its tag times a Fibonacci
// constant: the product's low bits depend only on the tag's low bits, the
// window's first symbols, and would cluster the probes. Collisions probe
// linearly. The table holds only training windows, so a hostile query can
// only lengthen its own probe, and no per-process hash seed is needed.
//
// A DB is immutable after Build and safe for concurrent readers.
type DB struct {
	width int
	total int
	// keys holds the distinct windows concatenated in first-seen order:
	// entry e is keys[e*width:(e+1)*width] and occurs counts[e] times.
	keys   string
	counts []int
	// slots is a power-of-two array, at most half full, of entry index + 1
	// (0 marks an empty slot); tags[s] is the tag of slots[s]'s entry.
	slots []int32
	tags  []uint64
	shift uint // 64 - log2(len(slots))
}

// minSlots is the slot count a table starts with; it doubles whenever more
// than half the slots are taken. Training streams hold tens to a few
// thousand distinct windows per width, so presizing for the window count
// would mostly reserve memory no entry uses.
const minSlots = 16

// maxEntries bounds the distinct windows of one DB so that entry index + 1
// fits an int32 slot in a table kept at most half full.
const maxEntries = 1 << 30

// Build slides a window of the given width across the stream and records
// every window with its occurrence count. It returns an error for a
// non-positive width; a stream shorter than the width yields an empty DB.
func Build(stream Stream, width int) (*DB, error) {
	if width <= 0 {
		return nil, fmt.Errorf("seq: non-positive window width %d", width)
	}
	n := NumWindows(len(stream), width)
	db := &DB{width: width, total: n}
	db.resize(minSlots)
	b := stream.Bytes()
	var keys []byte
	for i := 0; i < n; i++ {
		w := b[i : i+width]
		tag := windowTag(w)
		mask := len(db.slots) - 1
		for s := db.home(tag); ; s = (s + 1) & mask {
			e := int(db.slots[s])
			if e == 0 {
				if len(db.counts) == maxEntries {
					return nil, fmt.Errorf("seq: more than %d distinct width-%d windows", maxEntries, width)
				}
				keys = append(keys, w...)
				db.counts = append(db.counts, 1)
				db.slots[s], db.tags[s] = int32(len(db.counts)), tag
				if 2*len(db.counts) > len(db.slots) {
					db.resize(2 * len(db.slots))
				}
				break
			}
			if db.tags[s] == tag && (width <= 8 || string(keys[(e-1)*width:e*width]) == string(w)) {
				db.counts[e-1]++
				break
			}
		}
	}
	db.keys = string(keys)
	return db, nil
}

// resize rehashes every entry into a table of size slots, a power of two,
// from the stored tags alone.
func (db *DB) resize(size int) {
	slots, tags := db.slots, db.tags
	db.slots = make([]int32, size)
	db.tags = make([]uint64, size)
	db.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, e := range slots {
		if e == 0 {
			continue
		}
		s := db.home(tags[i])
		for db.slots[s] != 0 {
			s = (s + 1) & (size - 1)
		}
		db.slots[s], db.tags[s] = e, tags[i]
	}
}

// home returns the slot a probe for tag starts at.
func (db *DB) home(tag uint64) int {
	return int(tag * 0x9E3779B97F4A7C15 >> db.shift)
}

// key returns the byte-encoded window of entry e.
func (db *DB) key(e int) string {
	return db.keys[e*db.width : (e+1)*db.width]
}

// windowTag returns w's tag: w itself, packed little-endian through
// fixed-width loads, when it is at most 8 bytes long, and a 64-bit hash of
// its 8-byte chunks otherwise.
func windowTag(w []byte) uint64 {
	le := binary.LittleEndian
	switch len(w) {
	case 1:
		return uint64(w[0])
	case 2:
		return uint64(le.Uint16(w))
	case 3:
		return uint64(le.Uint16(w)) | uint64(w[2])<<16
	case 4:
		return uint64(le.Uint32(w))
	case 5:
		return uint64(le.Uint32(w)) | uint64(w[4])<<32
	case 6:
		return uint64(le.Uint32(w)) | uint64(le.Uint16(w[4:]))<<32
	case 7:
		return uint64(le.Uint32(w)) | uint64(le.Uint16(w[4:]))<<32 | uint64(w[6])<<48
	case 8:
		return le.Uint64(w)
	}
	// The last chunk is the final 8 bytes, overlapping the one before when
	// the length is not a multiple of 8.
	const m = 0xBF58476D1CE4E5B9
	n := len(w)
	h := uint64(n)
	for i := 0; i+8 < n; i += 8 {
		h = (h ^ le.Uint64(w[i:])) * m
		h ^= h >> 31
	}
	h = (h ^ le.Uint64(w[n-8:])) * m
	return h ^ h>>31
}

// Width returns the window width the database was built for.
func (db *DB) Width() int { return db.width }

// Total returns the total number of windows recorded (with multiplicity).
func (db *DB) Total() int { return db.total }

// Distinct returns the number of distinct sequences in the database.
func (db *DB) Distinct() int { return len(db.counts) }

// Count returns the number of occurrences of w. Sequences of the wrong
// length never occur and count zero.
func (db *DB) Count(w Stream) int {
	if len(w) != db.width {
		return 0
	}
	// Encode into a stack buffer so the common widths (the evaluation grid
	// tops out at 16) query without allocating.
	var tmp [64]byte
	if db.width <= len(tmp) {
		for i, sym := range w {
			tmp[i] = byte(sym)
		}
		return db.CountBytes(tmp[:db.width])
	}
	return db.CountBytes(w.Bytes())
}

// CountBytes returns the number of occurrences of the byte-encoded window b
// (as produced by Stream.Bytes), without allocating. Sequences of the wrong
// length count zero.
func (db *DB) CountBytes(b []byte) int {
	if len(b) != db.width {
		return 0
	}
	tag := windowTag(b)
	mask := len(db.slots) - 1
	for s := db.home(tag); ; s = (s + 1) & mask {
		e := int(db.slots[s])
		if e == 0 {
			return 0
		}
		if db.tags[s] == tag && (db.width <= 8 || db.key(e-1) == string(b)) {
			return db.counts[e-1]
		}
	}
}

// AppendCounts appends to dst the count of every width-length window of
// the byte-encoded buffer b, in order, each as a float64: the batch form of
// CountBytes behind the window detectors' score loops, allocation-free
// beyond growing dst. A window of at most 8 symbols is its own tag, so the
// tag rolls across b, one byte shifted out and one in per window, and
// probes the table inline; a longer window goes through CountBytes.
func (db *DB) AppendCounts(b []byte, dst []float64) []float64 {
	w := db.width
	m := NumWindows(len(b), w)
	if m == 0 {
		return dst
	}
	base := len(dst)
	dst = slices.Grow(dst, m)[:base+m]
	out := dst[base:]
	if w > 8 {
		for i := range out {
			out[i] = float64(db.CountBytes(b[i : i+w]))
		}
		return dst
	}
	// Each step shifts the previous window's first byte out of the tag and
	// the new window's last byte in at bit offset in. The first tag starts
	// one byte up, so the first step rolls it onto window 0: the byte it
	// shifts in is the one the top shifted out (w = 8), or already there.
	in := uint(8 * (w - 1))
	tag := windowTag(b[:w]) << 8
	slots, tags, counts, mask := db.slots, db.tags, db.counts, len(db.slots)-1
	for i, last := range b[w-1:][:len(out)] {
		tag = tag>>8 | uint64(last)<<in
		c := 0
		for s := db.home(tag); ; s = (s + 1) & mask {
			e := int(slots[s])
			if e == 0 {
				break
			}
			if tags[s] == tag {
				c = counts[e-1]
				break
			}
		}
		out[i] = float64(c)
	}
	return dst
}

// Contains reports whether w occurs at least once.
func (db *DB) Contains(w Stream) bool { return db.Count(w) > 0 }

// ContainsBytes reports whether the byte-encoded window b occurs at least
// once, without allocating.
func (db *DB) ContainsBytes(b []byte) bool { return db.CountBytes(b) > 0 }

// RelFreq returns the relative frequency of w among all recorded windows,
// in [0,1]. An empty database yields 0.
func (db *DB) RelFreq(w Stream) float64 {
	if db.total == 0 {
		return 0
	}
	return float64(db.Count(w)) / float64(db.total)
}

// RelFreqBytes is RelFreq for a byte-encoded window, without allocating.
func (db *DB) RelFreqBytes(b []byte) float64 {
	if db.total == 0 {
		return 0
	}
	return float64(db.CountBytes(b)) / float64(db.total)
}

// IsForeign reports whether w (of the database's width) never occurs:
// the paper's definition of a foreign sequence at this width.
func (db *DB) IsForeign(w Stream) bool {
	return len(w) == db.width && !db.Contains(w)
}

// IsForeignBytes is IsForeign for a byte-encoded window, without
// allocating.
func (db *DB) IsForeignBytes(b []byte) bool {
	return len(b) == db.width && db.CountBytes(b) == 0
}

// IsRare reports whether w occurs with relative frequency in (0, cutoff).
// A foreign sequence is not rare: it does not occur at all.
func (db *DB) IsRare(w Stream, cutoff float64) bool {
	c := db.Count(w)
	return c > 0 && float64(c) < cutoff*float64(db.total)
}

// IsRareBytes is IsRare for a byte-encoded window, without allocating.
func (db *DB) IsRareBytes(b []byte, cutoff float64) bool {
	c := db.CountBytes(b)
	return c > 0 && float64(c) < cutoff*float64(db.total)
}

// Each calls fn for every distinct sequence with its count, in the order
// of each sequence's first occurrence in the stream. fn must not retain
// the Stream beyond the call: Each reuses it for the next sequence.
func (db *DB) Each(fn func(w Stream, count int)) {
	w := make(Stream, db.width)
	for e, c := range db.counts {
		key := db.key(e)
		for i := range w {
			w[i] = alphabet.Symbol(key[i])
		}
		fn(w, c)
	}
}

// EachKey calls fn for every distinct sequence with its count, in the
// order of each sequence's first occurrence in the stream, passing the
// byte-encoded window as a string: the allocation-free counterpart of Each
// for callers (e.g. the neural-network trainer) that consume the encoded
// form directly.
func (db *DB) EachKey(fn func(key string, count int)) {
	for e, c := range db.counts {
		fn(db.key(e), c)
	}
}

// Rare returns all distinct sequences whose relative frequency is below
// cutoff, sorted lexicographically for determinism.
func (db *DB) Rare(cutoff float64) []Stream {
	limit := cutoff * float64(db.total)
	return db.sorted(func(count int) bool { return float64(count) < limit })
}

// Common returns all distinct sequences whose relative frequency is at least
// cutoff, sorted lexicographically for determinism.
func (db *DB) Common(cutoff float64) []Stream {
	limit := cutoff * float64(db.total)
	return db.sorted(func(count int) bool { return float64(count) >= limit })
}

// sorted returns the distinct sequences whose count keep accepts, in
// lexicographic order. It sorts entry indices by their key bytes, so the
// only allocations besides that index are the returned Streams, which
// share one backing array; an empty result allocates nothing.
func (db *DB) sorted(keep func(count int) bool) []Stream {
	n := 0
	for _, c := range db.counts {
		if keep(c) {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for e, c := range db.counts {
		if keep(c) {
			idx = append(idx, int32(e))
		}
	}
	slices.SortFunc(idx, func(a, b int32) int {
		return strings.Compare(db.key(int(a)), db.key(int(b)))
	})
	w := db.width
	back := make(Stream, len(idx)*w)
	out := make([]Stream, len(idx))
	for i, e := range idx {
		s, key := back[i*w:(i+1)*w:(i+1)*w], db.key(int(e))
		for j := range s {
			s[j] = alphabet.Symbol(key[j])
		}
		out[i] = s
	}
	return out
}
