package checkpoint

// Sharding: a grid run can be partitioned across N cooperating worker
// processes, each evaluating the cells a deterministic hash assigns to it
// and journaling them into its own shard journal. The shard identity is
// pinned into the journal fingerprint's Extra, so a shard journal can never
// be resumed by a differently-sharded run (or by the unsharded final run)
// and shards of different runs can never be cross-merged; Merge strips the
// qualifier again when it assembles the combined journal.

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// shardTag prefixes the shard qualifier inside Fingerprint.Extra.
const shardTag = "shard="

// extraSep separates qualifiers inside Fingerprint.Extra. The drivers'
// own extras use commas ("mode=nn,window=8"), so a semicolon-delimited
// shard qualifier can always be recognized and stripped unambiguously.
const extraSep = ";"

// ShardOf deterministically assigns the cell to one of count shards by
// hashing its full identity (checkpoint key, window, size). The assignment
// is a pure function of the cell and the shard count — every worker of a
// sharded run computes the same partition without coordination, and the
// same cell can never be claimed by two shards. count < 2 puts every cell
// in shard 0.
func ShardOf(key string, window, size, count int) int {
	if count < 2 {
		return 0
	}
	// 32-bit FNV-1a, written out so that a call allocates nothing: the
	// serve tier hashes a tenant id on every submission.
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * prime32
	}
	var buf [9]byte
	// A terminator between the key and the coordinates keeps ("a", 12, 3)
	// and ("a1", 2, 3) from ever colliding byte-wise.
	buf[0] = 0xff
	binary.LittleEndian.PutUint32(buf[1:5], uint32(window))
	binary.LittleEndian.PutUint32(buf[5:9], uint32(size))
	for _, c := range buf {
		h = (h ^ uint32(c)) * prime32
	}
	return int(h % uint32(count))
}

// ShardQualifier renders the Extra qualifier pinning shard index (1-based)
// of count, e.g. "shard=2/3".
func ShardQualifier(index, count int) string {
	return fmt.Sprintf("%s%d/%d", shardTag, index, count)
}

// ShardDirName is the per-shard journal directory under the run's
// -checkpoint DIR, e.g. "shard-2-of-3".
func ShardDirName(index, count int) string {
	return fmt.Sprintf("shard-%d-of-%d", index, count)
}

// WithShard returns fp with the shard identity appended to its Extra. A
// shard journal's fingerprint therefore differs from the unsharded run's
// (and from every other shard's): Open refuses to resume across the
// boundary, and Merge uses the base fingerprint (shard stripped) to verify
// the shards belong to one run.
func WithShard(fp Fingerprint, index, count int) Fingerprint {
	q := ShardQualifier(index, count)
	if fp.Extra == "" {
		fp.Extra = q
	} else {
		fp.Extra += extraSep + q
	}
	return fp
}

// BaseFingerprint returns fp with any shard qualifier stripped from Extra —
// the fingerprint of the unsharded run the shard belongs to. A fingerprint
// without a shard qualifier is returned unchanged.
func BaseFingerprint(fp Fingerprint) Fingerprint {
	base, _ := splitShardExtra(fp.Extra)
	fp.Extra = base
	return fp
}

// ShardLabel returns the shard qualifier carried by fp's Extra ("2/3"), or
// "" when fp is not a shard fingerprint.
func ShardLabel(fp Fingerprint) string {
	_, shard := splitShardExtra(fp.Extra)
	return strings.TrimPrefix(shard, shardTag)
}

// splitShardExtra separates an Extra string into the non-shard qualifiers
// (rejoined in order) and the shard qualifier, if any.
func splitShardExtra(extra string) (base, shard string) {
	if extra == "" {
		return "", ""
	}
	var kept []string
	for _, part := range strings.Split(extra, extraSep) {
		if strings.HasPrefix(part, shardTag) {
			shard = part
			continue
		}
		kept = append(kept, part)
	}
	return strings.Join(kept, extraSep), shard
}
