package tensor

// Incremental maintenance of the raw adjacency behind a live model. A
// batch of edge deltas changes a handful of adjacency coordinates;
// MergeKJI folds them into the (k, j, i)-ordered COO arrays in one
// O(nnz+b) pass, into fresh arrays so served models are never mutated
// in place, and FromKJI wraps the result as a finalized Tensor for
// NewNodeTransition and NewRelationTransition. Normalisation is per
// column of O and per tube of R, so a run the batch did not touch keeps
// its exact probability bytes through that rebuild.

import "fmt"

// COO is a raw coordinate-form slice set: the adjacency values behind a
// finalized Tensor in its (k, j, i) order. The arrays are owned by
// whoever built them and are immutable by contract once published.
type COO struct {
	N, M    int
	I, J, K []int32
	V       []float64
}

// COOView exposes the finalized tensor's entries in their native
// (k, j, i) order. The slices alias the tensor's storage.
func (t *Tensor) COOView() COO {
	t.mustBeFinalized("COOView")
	return COO{N: t.n, M: t.m, I: t.i, J: t.j, K: t.k, V: t.v}
}

// FromKJI is the inverse of COOView: it wraps c as a finalized Tensor
// without copying or sorting. c may come from disk (a WAL snapshot), so
// every entry is checked first — aligned arrays, indices in range,
// strict (k, j, i) order with no duplicate coordinate, finite positive
// values — and nothing is built from a list that fails. The tensor
// aliases c's arrays, which must stay immutable; they are capped at
// their length, so an Add appends to fresh arrays.
func FromKJI(c COO) (*Tensor, error) {
	if c.N < 0 || c.M < 0 {
		return nil, fmt.Errorf("tensor: COO shape %dx%d negative", c.N, c.M)
	}
	nnz := len(c.V)
	if len(c.I) != nnz || len(c.J) != nnz || len(c.K) != nnz {
		return nil, fmt.Errorf("tensor: COO arrays misaligned (i=%d j=%d k=%d v=%d)",
			len(c.I), len(c.J), len(c.K), nnz)
	}
	entry := func(q int) Change { return Change{I: c.I[q], J: c.J[q], K: c.K[q], V: c.V[q]} }
	if err := checkKJI("entry", nnz, c.N, c.M, entry, false); err != nil {
		return nil, err
	}
	return &Tensor{
		n: c.N, m: c.M,
		i: c.I[:nnz:nnz], j: c.J[:nnz:nnz], k: c.K[:nnz:nnz], v: c.V[:nnz:nnz],
		finalized: true,
	}, nil
}

// NNZ returns the number of stored entries.
func (c COO) NNZ() int { return len(c.V) }

// AtKJI looks up the raw value at (i, j, k) in a (k, j, i)-ordered COO.
func (c COO) AtKJI(i, j, k int32) (float64, bool) {
	lo, hi := 0, len(c.V)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.K[mid] < k || (c.K[mid] == k && (c.J[mid] < j || (c.J[mid] == j && c.I[mid] < i))) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.V) && c.I[lo] == i && c.J[lo] == j && c.K[lo] == k {
		return c.V[lo], true
	}
	return 0, false
}

// Change is the final effect of a delta batch on one adjacency
// coordinate: V > 0 sets the raw value (inserting the entry if absent),
// V == 0 removes an existing entry.
type Change struct {
	I, J, K int32
	V       float64
}

// MergeKJI merges strictly (k, j, i)-sorted changes into a
// (k, j, i)-ordered base, returning freshly allocated arrays. Removing
// an absent coordinate or presenting misordered, duplicate, out-of-range
// or non-finite changes is an error and leaves nothing published.
func MergeKJI(a COO, changes []Change) (COO, error) {
	change := func(q int) Change { return changes[q] }
	if err := checkKJI("change", len(changes), a.N, a.M, change, true); err != nil {
		return COO{}, err
	}
	out := COO{
		N: a.N, M: a.M,
		I: make([]int32, 0, len(a.V)+len(changes)),
		J: make([]int32, 0, len(a.V)+len(changes)),
		K: make([]int32, 0, len(a.V)+len(changes)),
		V: make([]float64, 0, len(a.V)+len(changes)),
	}
	emit := func(i, j, k int32, v float64) {
		out.I = append(out.I, i)
		out.J = append(out.J, j)
		out.K = append(out.K, k)
		out.V = append(out.V, v)
	}
	p, c := 0, 0
	for p < len(a.V) || c < len(changes) {
		switch {
		case c == len(changes):
			emit(a.I[p], a.J[p], a.K[p], a.V[p])
			p++
		case p == len(a.V):
			if changes[c].V == 0 {
				return COO{}, fmt.Errorf("tensor: change removes absent entry (%d,%d,%d)",
					changes[c].I, changes[c].J, changes[c].K)
			}
			emit(changes[c].I, changes[c].J, changes[c].K, changes[c].V)
			c++
		default:
			d := keyKJI(a.I[p], a.J[p], a.K[p], changes[c].I, changes[c].J, changes[c].K)
			switch {
			case d < 0:
				emit(a.I[p], a.J[p], a.K[p], a.V[p])
				p++
			case d > 0:
				if changes[c].V == 0 {
					return COO{}, fmt.Errorf("tensor: change removes absent entry (%d,%d,%d)",
						changes[c].I, changes[c].J, changes[c].K)
				}
				emit(changes[c].I, changes[c].J, changes[c].K, changes[c].V)
				c++
			default:
				if changes[c].V != 0 {
					emit(changes[c].I, changes[c].J, changes[c].K, changes[c].V)
				}
				p++
				c++
			}
		}
	}
	return out, nil
}

// keyKJI compares two in-range coordinates in (k, j, i) order: negative
// when (i1,j1,k1) precedes, zero when equal, positive when it follows.
func keyKJI(i1, j1, k1, i2, j2, k2 int32) int {
	if k1 != k2 {
		return int(k1 - k2)
	}
	if j1 != j2 {
		return int(j1 - j2)
	}
	return int(i1 - i2)
}

// checkKJI checks a coordinate list that must be strictly (k, j, i)-
// ordered over an n×n×m tensor, entry by entry as at returns them:
// indices in range, a finite weight — positive, or zero where
// zeroRemoves makes zero a removal — and each coordinate strictly after
// the one before, so none repeats. FromKJI holds adjacency entries to
// it and MergeKJI its changes.
func checkKJI(what string, count, n, m int, at func(q int) Change, zeroRemoves bool) error {
	var prev Change
	for q := 0; q < count; q++ {
		x := at(q)
		if x.I < 0 || int(x.I) >= n || x.J < 0 || int(x.J) >= n || x.K < 0 || int(x.K) >= m {
			return fmt.Errorf("tensor: %s %d coordinate (%d,%d,%d) out of %dx%dx%d",
				what, q, x.I, x.J, x.K, n, n, m)
		}
		if !(x.V > 0 || (zeroRemoves && x.V == 0)) || x.V > maxFinite {
			kind := "positive"
			if zeroRemoves {
				kind = "nonnegative"
			}
			return fmt.Errorf("tensor: %s %d value %v not a finite %s weight", what, q, x.V, kind)
		}
		if q > 0 && keyKJI(prev.I, prev.J, prev.K, x.I, x.J, x.K) >= 0 {
			return fmt.Errorf("tensor: %s %d (%d,%d,%d) not strictly after (%d,%d,%d) in (k,j,i) order",
				what, q, x.I, x.J, x.K, prev.I, prev.J, prev.K)
		}
		prev = x
	}
	return nil
}

// maxFinite rejects +Inf (and, via the > 0 and == 0 tests, NaN) while
// accepting every finite weight the ingest validators let through.
const maxFinite = 1.7976931348623157e308
