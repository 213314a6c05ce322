package tmark

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tmark/internal/hin"
)

// benchGraph builds a homophilous network of the given size for solver
// benchmarks.
func benchGraph(n int) *hin.Graph {
	rng := rand.New(rand.NewSource(1))
	g := hin.New("a", "b", "c", "d")
	for i := 0; i < n; i++ {
		f := make([]float64, 16)
		for d := 0; d < 6; d++ {
			f[(i%4)*4+rng.Intn(4)]++
		}
		g.AddNode("", f)
	}
	for k := 0; k < 5; k++ {
		g.AddRelation(fmt.Sprintf("r%d", k), false)
		for e := 0; e < 3*n; e++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if rng.Float64() < 0.7 {
				v = (v/4)*4 + u%4 // same class bucket
				if v >= n {
					v -= 4
				}
			}
			if u != v && v >= 0 {
				g.AddEdge(k, u, v)
			}
		}
	}
	for i := 0; i < n; i += 10 {
		g.SetLabels(i, i%4)
	}
	return g
}

// benchGraphQ is benchGraph with a configurable class count q; node i
// belongs to class bucket i%q and features/edges are homophilous within
// the bucket. The tensor nonzero count is ≈ 15·n (5 relations × 3n
// directed edges, minus collisions).
func benchGraphQ(n, q int) *hin.Graph {
	rng := rand.New(rand.NewSource(1))
	names := make([]string, q)
	for c := range names {
		names[c] = fmt.Sprintf("class%d", c)
	}
	g := hin.New(names...)
	for i := 0; i < n; i++ {
		f := make([]float64, 4*q)
		for d := 0; d < 6; d++ {
			f[(i%q)*4+rng.Intn(4)]++
		}
		g.AddNode("", f)
	}
	for k := 0; k < 5; k++ {
		g.AddRelation(fmt.Sprintf("r%d", k), false)
		for e := 0; e < 3*n; e++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if rng.Float64() < 0.7 {
				v = (v/q)*q + u%q // same class bucket
				if v >= n {
					v -= q
				}
			}
			if u != v && v >= 0 {
				g.AddEdge(k, u, v)
			}
		}
	}
	for i := 0; i < n; i += 10 {
		g.SetLabels(i, i%q)
	}
	return g
}

// BenchmarkBatchedVsSequential compares the lockstep engine against the
// sequential oracle (one class at a time through the single-vector
// kernels) on the O-contraction-dominated configuration (Gamma = 0),
// sweeping the class count and the tensor size. Epsilon is unreachable
// so both perform the same fixed iteration count, and Workers is pinned
// to 1 so the ratio isolates the kernel fusion rather than pool
// scheduling. The engine streams each tensor entry once per iteration
// instead of q times, so its edge should grow with q.
func BenchmarkBatchedVsSequential(b *testing.B) {
	for _, nnz := range []int{10_000, 100_000} {
		n := nnz / 15
		for _, q := range []int{2, 4, 8} {
			g := benchGraphQ(n, q)
			cfg := DefaultConfig()
			cfg.Gamma = 0 // O-contraction-dominated: no feature channel
			cfg.ICAUpdate = false
			cfg.Epsilon = 1e-300
			cfg.MaxIterations = 8
			cfg.Workers = 1
			m, err := New(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("nnz=%dk/q=%d/batched", nnz/1000, q), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.RunContext(context.Background())
				}
			})
			b.Run(fmt.Sprintf("nnz=%dk/q=%d/sequential", nnz/1000, q), func(b *testing.B) {
				o := newOracle(m)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					o.run(nil)
				}
			})
		}
	}
}

// BenchmarkRun measures a full multi-class solve at several network sizes;
// time should scale with the tensor nonzeros (O(qTD)).
func BenchmarkRun(b *testing.B) {
	for _, n := range []int{200, 500, 1000} {
		g := benchGraph(n)
		m, err := New(g, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Run()
			}
		})
	}
}

// BenchmarkRunWarm measures the incremental-restart saving.
func BenchmarkRunWarm(b *testing.B) {
	g := benchGraph(500)
	m, err := New(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	prev := m.Run()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Run()
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.RunWarm(prev)
		}
	})
}

// BenchmarkModelRunParallel sweeps the Workers knob on a large graph so
// the intra-operator scaling can be read off directly. Epsilon is set
// unreachably small so every worker count performs the same fixed number
// of iterations. On a single-CPU host all worker counts share one core
// and the sweep measures only dispatch overhead; run with GOMAXPROCS of
// at least 8 to observe the speedup.
func BenchmarkModelRunParallel(b *testing.B) {
	g := benchGraph(20000)
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig()
		cfg.Gamma = 0 // the dense feature channel needs O(n^2) memory at this scale
		cfg.Epsilon = 1e-300
		cfg.MaxIterations = 8
		cfg.Workers = workers
		m, err := New(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Run()
			}
		})
	}
}

// BenchmarkModelConstruction isolates tensor + W build cost.
func BenchmarkModelConstruction(b *testing.B) {
	g := benchGraph(500)
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
