package main

import (
	"runtime"
	"time"

	"tmark/internal/hin"
	"tmark/internal/markov"
	"tmark/internal/par"
	"tmark/internal/sparse"
	"tmark/internal/tensor"
	"tmark/internal/tmark"
)

// A kernel replay times at least kernelMinCalls calls, for at least
// kernelBudget.
const (
	kernelBudget   = 300 * time.Millisecond
	kernelMinCalls = 20
)

// Computed bytes and operations of one kernel call at b interleaved
// columns, from the storage layouts (int32 indices, float64 values and
// vectors). Each stored entry is read once per call and shared by the
// b columns; the vector traffic is per column. No cache reuse is
// assumed, so this is the traffic a kernel would move with no cache at
// all, not what it does move.
//
//	O: nnz·(20 + 32b) + cols·(8 + 16b)   entry i,j,k,p; x_j, z_k loads and the dst_i read and write;
//	                                     stored column j,k with its x_j·z_k mass pass
//	R: nnz·(20 + 32b) + tubes·(12 + 16b) entry i,j,k,p; x_i, x_j loads and the dst_k read and write;
//	                                     tube i,j,start with its x_i·x_j mass pass
//	W: nnz·(12 + 8b) + rows·(4 + 8b)     CSR column index and value; x_col load; row pointer and dst write
//
// Flops: 3 per entry per column for O and R (two multiplies, one add),
// 2 for W (one multiply, one add).
func kernelBytes(sub tmark.Substrate, b int) (o, r, w float64) {
	or, rr := sub.O.Raw(), sub.R.Raw()
	fb := float64(b)
	o = float64(len(or.P))*(20+32*fb) + float64(len(or.ColJ))*(8+16*fb)
	r = float64(len(rr.P))*(20+32*fb) + float64(len(rr.TubeI))*(12+16*fb)
	if sub.WCSR != nil {
		wr := sub.WCSR.Raw()
		w = float64(len(wr.Values))*(12+8*fb) + float64(wr.Rows)*(4+8*fb)
	}
	return o, r, w
}

// kernelReplays times the O, R and W kernels of a solve on sub at b
// columns, with the worker count the solver uses by default, and
// reports each as ns per nonzero per column, computed GB/s and flops
// per computed byte.
func kernelReplays(sub tmark.Substrate, b int, tr *tracer) map[string]float64 {
	if b < 1 {
		b = 1
	}
	workers := runtime.GOMAXPROCS(0)
	pool := par.New(workers)
	defer pool.Close()
	n, m := sub.O.N(), sub.O.M()
	x, z := fillBlock(n*b, 1/float64(n)), fillBlock(m*b, 1/float64(m))
	dx, dz := make([]float64, n*b), make([]float64, m*b)
	ob := tensor.NewNodeBatchScratch(sub.O, workers, b)
	rb := tensor.NewRelationBatchScratch(sub.R, workers, b)
	wb := sparse.NewMulBatchScratch(workers)
	serial := workers == 1

	oBytes, rBytes, wBytes := kernelBytes(sub, b)
	out := map[string]float64{}
	record := func(layer string, nnz int, bytes, flopsPerEntry float64, call func()) {
		if nnz == 0 {
			return // no such channel: the metrics stay 0
		}
		for i := 0; i < 3; i++ {
			call()
		}
		var calls []float64
		start := time.Now()
		for len(calls) < kernelMinCalls || time.Since(start) < kernelBudget {
			calls = append(calls, float64(tr.do(layer+".apply_batch", 0, 0, call)))
		}
		ns := median(calls)
		out[layer+"_ns_per_nnz_col"] = ns / float64(nnz*b)
		out[layer+"_gbps_computed"] = bytes / ns
		out[layer+"_flops_per_byte"] = flopsPerEntry * float64(nnz*b) / bytes
	}
	record("tensor.o", sub.O.NNZ(), oBytes, 3, func() {
		if serial {
			sub.O.ApplyBatch(ob, x, z, dx, b)
		} else {
			sub.O.ApplyBatchParallel(pool, ob, x, z, dx, b)
		}
	})
	record("tensor.r", sub.R.NNZ(), rBytes, 3, func() {
		if serial {
			sub.R.ApplyBatch(rb, x, dz, b)
		} else {
			sub.R.ApplyBatchParallel(pool, rb, x, dz, b)
		}
	})
	wnnz := 0
	if sub.WCSR != nil {
		wnnz = sub.WCSR.NNZ()
	}
	record("sparse.w", wnnz, wBytes, 2, func() {
		if serial {
			sub.WCSR.MulVecBatch(x, dx, b)
		} else {
			sub.WCSR.MulVecBatchParallel(pool, wb, x, dx, b)
		}
	})
	return out
}

func fillBlock(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// buildReplays times the two halves of a raw model build on g: the O
// and R normalisation of the adjacency tensor, and the feature
// transition W, built the way tmark.New builds them.
func buildReplays(g *hin.Graph, cfg tmark.Config, tr *tracer) map[string]float64 {
	norm := tr.do("tensor.normalise", 0, 0, func() {
		a := g.AdjacencyTensor()
		_ = tensor.NewNodeTransition(a)
		_ = tensor.NewRelationTransition(a)
	})
	wb := tr.do("markov.w_build", 0, 0, func() {
		pool := par.New(runtime.GOMAXPROCS(0))
		defer pool.Close()
		if cfg.FeatureTopK > 0 {
			_ = markov.SparseFeatureTransitionCSRPar(g.FeatureMatrix(), cfg.FeatureTopK, pool)
		} else {
			_ = markov.FeatureTransitionPar(g.FeatureMatrix(), pool)
		}
	})
	return map[string]float64{"tensor.normalise_s": norm.Seconds(), "markov.w_build_s": wb.Seconds()}
}
