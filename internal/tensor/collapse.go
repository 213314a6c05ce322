package tensor

import "fmt"

// CollapseZ folds the relation mode of O against a fixed relation
// distribution zbar, producing the node-to-node transition matrix
//
//	P[i,j] = Σ_k o[i,j,k]·zbar[k]
//
// of the linearized T-Mark update x' = (1−α−β)·P·x + β·W·x + α·l (the
// approximate tier freezes z at zbar instead of re-coupling it through
// eq. (8) every iteration). The stored entries are returned as COO
// triplets in O's row-block order; the implicit dangling columns
// of O contribute uniformly and are summarised per source node instead
// of materialised: dangle[j] = Σ_(k: column (j,k) dangling) zbar[k], so
// a matvec adds (Σ_j dangle[j]·x[j])/n to every entry of the result.
//
// When zbar is a distribution, every column of the collapsed operator
// is again stochastic: Σ_i P[i,j] + dangle[j] = Σ_k zbar[k] = 1, since
// each stored (j,k) column of O sums to one.
func (o *NodeTransition) CollapseZ(zbar []float64) (rows, cols []int32, vals []float64, dangle []float64) {
	if len(zbar) != o.m {
		panic(fmt.Sprintf("tensor: CollapseZ zbar length %d, want %d", len(zbar), o.m))
	}
	var zSum float64
	for _, v := range zbar {
		zSum += v
	}
	dangle = make([]float64, o.n)
	for j := range dangle {
		dangle[j] = zSum
	}
	// The column list gives the per-j stored column weights; one pass
	// over the row blocks gives P. Different k values revisit the same
	// (i, j) pair, so the triplets carry duplicates, in ascending k within
	// the pair as in the (k, j, i) order — the caller's sparse builder
	// (sparse.FromTriplets) sums them in that order.
	for q, cj := range o.colJ {
		dangle[cj] -= zbar[o.colK[q]]
	}
	rows = make([]int32, 0, len(o.p))
	cols = make([]int32, 0, len(o.p))
	vals = make([]float64, 0, len(o.p))
	for q, pi := range o.i {
		w := o.p[q] * zbar[o.k[q]]
		if w == 0 {
			continue
		}
		rows = append(rows, pi)
		cols = append(cols, o.j[q])
		vals = append(vals, w)
	}
	// Accumulated rounding can push a fully covered source node's dangling
	// weight a hair negative; clamp so the collapsed operator never
	// subtracts mass.
	for j := range dangle {
		if dangle[j] < 0 {
			dangle[j] = 0
		}
	}
	return rows, cols, vals, dangle
}
