package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShardOfMatchesFNV holds ShardOf's written-out hash to hash/fnv's
// FNV-1a over the key, a 0xff terminator and the little-endian coordinates,
// the recipe that fixes every cell's and every served tenant's shard, and
// checks that a call allocates nothing.
func TestShardOfMatchesFNV(t *testing.T) {
	for _, key := range []string{"", "stide", "nn[epochs=25,lr=0.1]", "probe-17", "tenant-\xff\x00"} {
		for _, window := range []int{0, 2, 15, 1 << 20} {
			for _, size := range []int{0, 2, 9} {
				h := fnv.New32a()
				h.Write([]byte(key))
				var buf [9]byte
				buf[0] = 0xff
				binary.LittleEndian.PutUint32(buf[1:5], uint32(window))
				binary.LittleEndian.PutUint32(buf[5:9], uint32(size))
				h.Write(buf[:])
				for count := 2; count <= 9; count++ {
					if got, want := ShardOf(key, window, size, count), int(h.Sum32()%uint32(count)); got != want {
						t.Fatalf("ShardOf(%q, %d, %d, %d) = %d, FNV-1a says %d", key, window, size, count, got, want)
					}
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { ShardOf("tenant-42", 0, 0, 8) }); n != 0 {
		t.Fatalf("ShardOf allocates %v times per call", n)
	}
}

func TestShardOfPartition(t *testing.T) {
	const count = 3
	seen := make(map[int]int)
	for _, key := range []string{"stide", "nn", "nn[epochs=25,lr=0.1]", "tstide[cutoff=0.001]"} {
		for window := 2; window <= 15; window++ {
			for size := 2; size <= 9; size++ {
				s := ShardOf(key, window, size, count)
				if s < 0 || s >= count {
					t.Fatalf("ShardOf(%q, %d, %d, %d) = %d outside [0,%d)", key, window, size, count, s, count)
				}
				if again := ShardOf(key, window, size, count); again != s {
					t.Fatalf("ShardOf not deterministic for (%q, %d, %d)", key, window, size)
				}
				seen[s]++
			}
		}
	}
	for s := 0; s < count; s++ {
		if seen[s] == 0 {
			t.Errorf("shard %d received no cells across the full grid", s)
		}
	}
	if ShardOf("stide", 2, 2, 1) != 0 || ShardOf("stide", 2, 2, 0) != 0 {
		t.Errorf("degenerate shard counts must map to shard 0")
	}
	// The key terminator keeps (key, window) ambiguity out of the hash:
	// different cells may share a shard but must be hashed as distinct
	// identities. Spot-check a former collision shape across many counts.
	differs := false
	for count := 2; count <= 17; count++ {
		if ShardOf("a", 12, 3, count) != ShardOf("a1", 2, 3, count) {
			differs = true
			break
		}
	}
	if !differs {
		t.Errorf("ShardOf hashes (\"a\",12) and (\"a1\",2) identically at every count 2..17")
	}
}

func TestWithShardFingerprint(t *testing.T) {
	fp := testFingerprint()
	fp.Extra = "regime=strict"
	sharded := WithShard(fp, 2, 3)
	if sharded.Extra != "regime=strict;shard=2/3" {
		t.Fatalf("WithShard Extra = %q", sharded.Extra)
	}
	if sharded.Equal(fp) {
		t.Fatalf("shard-qualified fingerprint equals the base — shards could cross-resume")
	}
	if got := ShardLabel(sharded); got != "2/3" {
		t.Errorf("ShardLabel = %q, want 2/3", got)
	}
	if got := ShardLabel(fp); got != "" {
		t.Errorf("ShardLabel of unsharded fingerprint = %q, want empty", got)
	}
	if !BaseFingerprint(sharded).Equal(fp) {
		t.Errorf("BaseFingerprint(%q) does not recover the base", sharded.Extra)
	}

	// Empty Extra: the qualifier stands alone and strips back to empty.
	bare := testFingerprint()
	shardedBare := WithShard(bare, 1, 4)
	if shardedBare.Extra != "shard=1/4" {
		t.Fatalf("WithShard on empty Extra = %q", shardedBare.Extra)
	}
	if !BaseFingerprint(shardedBare).Equal(bare) {
		t.Errorf("BaseFingerprint did not strip a bare shard qualifier")
	}
}

// writeShardJournal materializes one shard journal under dir holding recs,
// headed by the base fingerprint qualified as shard index/count.
func writeShardJournal(t *testing.T, dir string, base Fingerprint, index, count int, recs []CellRecord) string {
	t.Helper()
	shardDir := filepath.Join(dir, ShardDirName(index, count))
	j, err := Open(shardDir, WithShard(base, index, count), false)
	if err != nil {
		t.Fatalf("open shard %d/%d: %v", index, count, err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append to shard %d/%d: %v", index, count, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close shard %d/%d: %v", index, count, err)
	}
	return filepath.Join(shardDir, JournalFile)
}

// TestMergeProperty is the merge property test: three shards partitioned by
// ShardOf — with an overlapping duplicate cell, a within-shard superseded
// append, and one torn tail — must merge into a journal whose replay map
// equals a serial reference journal's exactly, and the merged bytes must be
// deterministic across repeated merges.
func TestMergeProperty(t *testing.T) {
	dir := t.TempDir()
	base := testFingerprint()
	const count = 3

	// The full cell set a serial run would journal.
	var all []CellRecord
	for _, key := range []string{"stide", "nn"} {
		for window := 2; window <= 6; window++ {
			for size := 2; size <= 7; size++ {
				all = append(all, testRecord(key, window, size))
			}
		}
	}

	// Partition by ShardOf, exactly as sharded workers would.
	parts := make([][]CellRecord, count)
	for _, rec := range all {
		s := ShardOf(rec.Key, rec.Window, rec.Size, count)
		parts[s] = append(parts[s], rec)
	}
	// Shard 1 additionally re-journals one of shard 0's cells identically
	// (an overlap, legal) and appends one of its own cells twice with an
	// earlier bogus result first (superseded by last-write-wins).
	overlap := parts[0][0]
	parts[1] = append(parts[1], overlap)
	stale := parts[1][0]
	stale.RespBits = math.Float64bits(0.015625)
	parts[1] = append([]CellRecord{stale}, parts[1]...)

	var srcs []string
	for i := 0; i < count; i++ {
		srcs = append(srcs, writeShardJournal(t, dir, base, i+1, count, parts[i]))
	}
	// Tear shard 2's tail mid-record, as a SIGKILL would.
	torn, err := os.ReadFile(srcs[2])
	if err != nil {
		t.Fatal(err)
	}
	tornRec := parts[2][len(parts[2])-1]
	if err := os.WriteFile(srcs[2], torn[:len(torn)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, JournalFile)
	stats, err := Merge(dst, srcs)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if stats.Shards != count {
		t.Errorf("Shards = %d, want %d", stats.Shards, count)
	}
	if stats.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1 (the overlap cell)", stats.Duplicates)
	}
	if stats.Superseded != 1 {
		t.Errorf("Superseded = %d, want 1 (the stale duplicate append)", stats.Superseded)
	}
	if stats.TornBytes == 0 {
		t.Errorf("TornBytes = 0, want > 0 for the torn shard tail")
	}
	if stats.Cells != len(all)-1 {
		t.Errorf("Cells = %d, want %d (full grid minus the torn-away record)", stats.Cells, len(all)-1)
	}

	// The merged journal resumes under the UNSHARDED fingerprint and its
	// replay map matches the serial reference cell for cell.
	merged, err := Open(dir, base, true)
	if err != nil {
		t.Fatalf("opening merged journal: %v", err)
	}
	defer merged.Close()
	for _, rec := range all {
		if rec == tornRec {
			if _, ok := merged.Lookup(rec.Key, rec.Window, rec.Size); ok {
				t.Errorf("torn-away record (%s, %d, %d) resurfaced in the merge", rec.Key, rec.Window, rec.Size)
			}
			continue
		}
		got, ok := merged.Lookup(rec.Key, rec.Window, rec.Size)
		if !ok {
			t.Fatalf("merged journal missing cell (%s, %d, %d)", rec.Key, rec.Window, rec.Size)
		}
		if got != rec {
			t.Errorf("merged cell (%s, %d, %d) = %+v, want the serial record %+v", rec.Key, rec.Window, rec.Size, got, rec)
		}
	}

	// Determinism: merging again produces byte-identical output.
	first, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	merged.Close()
	if _, err := Merge(dst, srcs); err != nil {
		t.Fatalf("second Merge: %v", err)
	}
	second, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("repeated merges of identical shards produced different bytes")
	}
}

func TestMergeConflictNamesCell(t *testing.T) {
	dir := t.TempDir()
	base := testFingerprint()
	rec := testRecord("stide", 4, 5)
	conflicting := rec
	conflicting.RespBits = math.Float64bits(0.375)
	srcs := []string{
		writeShardJournal(t, dir, base, 1, 2, []CellRecord{testRecord("stide", 2, 2), rec}),
		writeShardJournal(t, dir, base, 2, 2, []CellRecord{conflicting, testRecord("stide", 3, 3)}),
	}
	_, err := Merge(filepath.Join(dir, JournalFile), srcs)
	if err == nil {
		t.Fatalf("merge of conflicting duplicate cells succeeded")
	}
	for _, want := range []string{"conflict", "stide", "window 4", "size 5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("conflict error %q does not name %q", err, want)
		}
	}
	if _, statErr := os.Stat(filepath.Join(dir, JournalFile)); !os.IsNotExist(statErr) {
		t.Errorf("failed merge left a merged journal behind")
	}
}

func TestMergeRefusesForeignShards(t *testing.T) {
	dir := t.TempDir()
	base := testFingerprint()
	other := testFingerprint()
	other.Seed++
	srcs := []string{
		writeShardJournal(t, dir, base, 1, 2, []CellRecord{testRecord("stide", 2, 2)}),
		writeShardJournal(t, dir, other, 2, 2, []CellRecord{testRecord("stide", 3, 3)}),
	}
	if _, err := Merge(filepath.Join(dir, JournalFile), srcs); err == nil {
		t.Fatalf("merge across different base fingerprints succeeded")
	} else if !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("unexpected refusal: %v", err)
	}
}

func TestMergeRefusesHeaderlessShard(t *testing.T) {
	dir := t.TempDir()
	base := testFingerprint()
	good := writeShardJournal(t, dir, base, 1, 2, []CellRecord{testRecord("stide", 2, 2)})
	bad := filepath.Join(dir, "broken.journal")
	if err := os.WriteFile(bad, []byte("zeroed by a dying disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(filepath.Join(dir, JournalFile), []string{good, bad}); err == nil {
		t.Fatalf("merge with a headerless shard succeeded")
	} else if !strings.Contains(err.Error(), "broken.journal") {
		t.Errorf("refusal does not name the broken shard: %v", err)
	}
	if _, err := Merge(filepath.Join(dir, JournalFile), nil); err == nil {
		t.Fatalf("merge of zero shards succeeded")
	}
}

func TestMergeSingleShardDegenerate(t *testing.T) {
	dir := t.TempDir()
	base := testFingerprint()
	recs := []CellRecord{testRecord("nn", 2, 2), testRecord("nn", 2, 3)}
	src := writeShardJournal(t, dir, base, 1, 1, recs)
	dst := filepath.Join(dir, JournalFile)
	stats, err := Merge(dst, []string{src})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if stats.Shards != 1 || stats.Cells != len(recs) || stats.Duplicates != 0 {
		t.Errorf("stats = %+v, want 1 shard, %d cells, 0 duplicates", stats, len(recs))
	}
	merged, err := Open(dir, base, true)
	if err != nil {
		t.Fatalf("opening merged journal: %v", err)
	}
	defer merged.Close()
	if merged.Resumed() != len(recs) {
		t.Errorf("Resumed = %d, want %d", merged.Resumed(), len(recs))
	}
}

func BenchmarkMerge(b *testing.B) {
	dir := b.TempDir()
	base := testFingerprint()
	const count = 4
	parts := make([][]CellRecord, count)
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("nn[epochs=%d]", k)
		for window := 2; window <= 15; window++ {
			for size := 2; size <= 9; size++ {
				s := ShardOf(key, window, size, count)
				parts[s] = append(parts[s], testRecord(key, window, size))
			}
		}
	}
	var srcs []string
	for i := 0; i < count; i++ {
		shardDir := filepath.Join(dir, ShardDirName(i+1, count))
		j, err := Open(shardDir, WithShard(base, i+1, count), false)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range parts[i] {
			if err := j.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
		j.Close()
		srcs = append(srcs, filepath.Join(shardDir, JournalFile))
	}
	dst := filepath.Join(dir, JournalFile)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(dst, srcs); err != nil {
			b.Fatal(err)
		}
	}
}
