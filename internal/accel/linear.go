package accel

import (
	"fmt"

	"tmark/internal/par"
	"tmark/internal/sparse"
)

// System is the linearized T-Mark operator: the fast tier's one-matrix
// stand-in for the coupled tensor fixed point. Freezing the relation
// distribution z at a constant z̄ turns the cubic contraction
// O ×̄₁ x ×̄₃ z into an ordinary sparse matvec P·x with
// P[i,j] = Σ_k o[i,j,k]·z̄_k, so the update
//
//	x = rel·(P·x + dangling) + β·W·x + α·l,  rel = 1−α−β
//
// is a linear system (I − rel·P − β·W)·x = α·l whose iteration matrix
// has L1 operator norm rel+β = 1−α < 1: Jacobi sweeps contract
// geometrically at rate ≤ 1−α, and the sweep count to tolerance ε is at
// most log(ε)/log(1−α) regardless of the graph. The feature channel W
// stays with the solver, which already runs its blocked product; a sweep
// here covers every other term.
//
// Accuracy bound: the fast tier's error against the exact coupled
// solution is governed by how far the true stationary z̄* drifts from
// the frozen z̄ — ‖x_fast − x_exact‖₁ ≤ (rel/α)·L·‖z̄ − z̄*‖₁, where
// L ≤ 1 is the Lipschitz constant of the collapsed contraction in its
// z argument — and by dropping the ICA reseed entirely. The solver's
// tests assert the bound with L = 1 on random networks; the golden
// equivalence suite pins the realised envelope (accuracy/NMI deltas) on
// the reference datasets; callers needing exact answers use the plain
// or accelerated tiers.
type System struct {
	n      int
	rel    float64 // (1−α−β) weight of the collapsed tensor term
	alpha  float64 // restart weight
	p      *sparse.Matrix
	dangle []float64 // per-source-node dangling weight of the collapsed P
}

// NewSystem assembles the linearized operator from the collapsed tensor
// (COO triplets plus per-node dangling weights, as produced by
// tensor.CollapseZ) and the T-Mark mixture weights. Duplicate (row, col)
// triplets are summed.
func NewSystem(n int, rows, cols []int32, vals []float64, dangle []float64, alpha, beta float64) (*System, error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("accel: triplet slices disagree: %d rows, %d cols, %d vals", len(rows), len(cols), len(vals))
	}
	if len(dangle) != n {
		return nil, fmt.Errorf("accel: dangle length %d, want %d", len(dangle), n)
	}
	rel := 1 - alpha - beta
	if alpha <= 0 || alpha >= 1 || beta < 0 || rel < 0 {
		return nil, fmt.Errorf("accel: weights out of range: alpha=%g beta=%g rel=%g", alpha, beta, rel)
	}
	ts := make([]sparse.Triplet, len(rows))
	for q := range rows {
		ts[q] = sparse.Triplet{Row: int(rows[q]), Col: int(cols[q]), Value: vals[q]}
	}
	return &System{
		n:      n,
		rel:    rel,
		alpha:  alpha,
		p:      sparse.FromTriplets(n, n, ts),
		dangle: dangle,
	}, nil
}

// NNZ returns the stored-entry count of the collapsed transition matrix.
func (s *System) NNZ() int { return s.p.NNZ() }

// ApplyBatch evaluates one Jacobi sweep without the feature term,
// dst = rel·(P·x + uniform dangling mass) + α·l, for every lane of the
// n×b blocks x and l (node-major, stride b); dst must not alias x. A
// lane that is +0 in x and l comes out +0. P·x runs through the blocked
// CSR product: on the pool, or serially when pool is nil, and on the
// scalar body when ms.NoASM is set. Every column gets exactly the floats
// a single-vector sweep of that column computes, so a column's answer
// does not depend on the block it rides in.
func (s *System) ApplyBatch(pool *par.Pool, ms *sparse.MulBatchScratch, x, l, dst []float64, b int) {
	s.p.MulVecBatchParallel(pool, ms, x, dst, b)
	for c := 0; c < b; c++ {
		// Dangling columns of the collapsed operator spread their mass
		// uniformly, exactly as the tensor's implicit 1/n columns do.
		var lost float64
		for j, d := range s.dangle {
			lost += d * x[j*b+c]
		}
		uni := s.rel * lost / float64(s.n)
		for p := c; p < s.n*b; p += b {
			dst[p] = s.rel*dst[p] + uni + s.alpha*l[p]
		}
	}
}
