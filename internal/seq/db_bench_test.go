package seq_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"adiv/internal/gen"
	"adiv/internal/seq"
)

// BenchmarkSeqDB measures the sequence database on the paper's training
// data: Build over the one-million-symbol gen.DefaultConfig() stream, and
// CountBytes of windows that occur (hit) and of windows that do not
// (miss), at the stide/L&B width 6 (a packed tag) and at 16 (a hashed
// tag). A lookup is one CountBytes call; "batch" is one AppendCounts call
// over the hit and miss probes laid end to end, reported per window. The
// lookup and batch cases assert the zero-allocation contract the score
// loops depend on.
func BenchmarkSeqDB(b *testing.B) {
	g, err := gen.New(gen.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	training := g.Training()
	encoded := training.Bytes()
	k := g.Alphabet().Size()
	for _, width := range []int{6, 16} {
		b.Run(fmt.Sprintf("build/w=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := seq.Build(training, width); err != nil {
					b.Fatal(err)
				}
			}
		})

		db, err := seq.Build(training, width)
		if err != nil {
			b.Fatal(err)
		}
		// 4096 probes each way, packed into one buffer as a score loop's
		// windows are: hits are training windows at seeded positions,
		// misses are seeded random windows the stream lacks.
		src := rand.New(rand.NewPCG(1, uint64(width)))
		var hits, misses []byte
		for len(hits) < 4096*width {
			i := src.IntN(len(encoded) - width + 1)
			hits = append(hits, encoded[i:i+width]...)
		}
		w := make([]byte, width)
		for len(misses) < 4096*width {
			for i := range w {
				w[i] = byte(src.IntN(k))
			}
			if !db.ContainsBytes(w) {
				misses = append(misses, w...)
			}
		}
		for _, c := range []struct {
			name   string
			probes []byte
			hit    bool
		}{{"hit", hits, true}, {"miss", misses, false}} {
			b.Run(fmt.Sprintf("count-%s/w=%d", c.name, width), func(b *testing.B) {
				i := 0
				lookup := func() {
					p := c.probes[(i&4095)*width:][:width]
					if (db.CountBytes(p) > 0) != c.hit {
						b.Fatalf("probe %v: hit %v", p, !c.hit)
					}
					i++
				}
				if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
					b.Fatalf("CountBytes allocates %v times per call, want 0", allocs)
				}
				b.ReportAllocs()
				for b.Loop() {
					lookup()
				}
			})
		}
		b.Run(fmt.Sprintf("batch/w=%d", width), func(b *testing.B) {
			buf := append(append([]byte(nil), hits...), misses...)
			dst := make([]float64, 0, len(buf))
			batch := func() { dst = db.AppendCounts(buf, dst[:0]) }
			if allocs := testing.AllocsPerRun(10, batch); allocs != 0 {
				b.Fatalf("AppendCounts allocates %v times per call, want 0", allocs)
			}
			b.ReportAllocs()
			for b.Loop() {
				batch()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/window")
		})
	}
}
