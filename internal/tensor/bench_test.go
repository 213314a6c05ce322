package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The contractions are the inner loop of every T-Mark iteration; these
// benches verify the O(D) cost directly at several sparsities.
func BenchmarkNodeTransitionApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, nnz := range []int{1_000, 10_000, 100_000} {
		n, m := 1000, 20
		a := randomTensor(rng, n, m, nnz)
		o := NewNodeTransition(a)
		x := randomStochastic(rng, n)
		z := randomStochastic(rng, m)
		dst := make([]float64, n)
		b.Run(fmt.Sprintf("nnz=%d", nnz), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o.Apply(x, z, dst)
			}
		})
	}
}

func BenchmarkRelationTransitionApply(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n, m := 1000, 20
	a := randomTensor(rng, n, m, 50_000)
	r := NewRelationTransition(a)
	x := randomStochastic(rng, n)
	dst := make([]float64, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Apply(x, dst)
	}
}

func BenchmarkFinalize(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n, m, nnz := 1000, 20, 50_000
	type entry struct {
		i, j, k int
		v       float64
	}
	entries := make([]entry, nnz)
	for p := range entries {
		entries[p] = entry{rng.Intn(n), rng.Intn(n), rng.Intn(m), 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(n, m)
		for _, e := range entries {
			a.Add(e.i, e.j, e.k, e.v)
		}
		a.Finalize()
	}
}

func BenchmarkTransitionConstruction(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randomTensor(rng, 1000, 20, 50_000)
	b.Run("node", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewNodeTransition(a)
		}
	})
	b.Run("relation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewRelationTransition(a)
		}
	})
}

// BenchmarkApplyBatchWidths times one serial blocked contraction per
// width b = 1…8 on a 4000-node, 6-relation tensor with 120k entries
// (the size of the served DBLP network): b = 4 and 8 run a vector body
// on AVX2 hosts, every other width the scalar one. ns/op divided by
// nnz·b is the per-column entry cost.
func BenchmarkApplyBatchWidths(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := randomTensor(rng, 4000, 6, 120_000)
	o := NewNodeTransition(a)
	r := NewRelationTransition(a)
	for w := 1; w <= 8; w++ {
		x := randomBlock(rng, o.N(), w)
		z := randomBlock(rng, o.M(), w)
		dst := make([]float64, o.N()*w)
		dstZ := make([]float64, r.M()*w)
		so := NewNodeBatchScratch(o, 1, w)
		sr := NewRelationBatchScratch(r, 1, w)
		b.Run(fmt.Sprintf("O/b=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o.ApplyBatch(so, x, z, dst, w)
			}
		})
		b.Run(fmt.Sprintf("R/b=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.ApplyBatch(sr, x, dstZ, w)
			}
		})
	}
}
