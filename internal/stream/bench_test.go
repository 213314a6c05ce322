package stream

// The delta-size sweep behind BENCH_9.json: one op is a full ingest
// batch — compose, merge into the raw adjacency, O and R rebuilt from
// it, canonical re-encode and hash — against a fixed random network.
// BENCH_9 also timed a warm re-solve per batch, which ingest no longer
// runs, so its rows are not comparable with this sweep.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkStreamIngest(b *testing.B) {
	const nodes = 300
	for _, size := range []int{1, 16, 256, 2048} {
		b.Run(fmt.Sprintf("deltas=%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			g := randomGraph(rng, nodes)
			cfg := streamConfig()
			eng, err := NewEngine("bench", g, cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// Pre-generate every batch: adds only, so any coordinate is
			// valid whatever earlier batches did.
			batches := make([][]Delta, b.N)
			for i := range batches {
				batch := make([]Delta, size)
				for d := range batch {
					batch[d] = Delta{
						Op:       OpAdd,
						From:     rng.Intn(nodes),
						To:       rng.Intn(nodes),
						Relation: rng.Intn(g.M()),
						Weight:   0.1 + rng.Float64(),
					}
				}
				batches[i] = batch
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Apply(ctx, batches[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
