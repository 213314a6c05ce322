package tensor

// Raw access to the normalised transition layouts. The artifact codec
// (internal/artifact) serialises a model's O and R into the TMARKAR1
// format and rebuilds them from the file's bytes, so the flat arrays
// behind NodeTransition and RelationTransition need a door: Raw exposes
// them in the format's order (R's aliased, read-only by contract; O's
// rebuilt from its row blocks) and the FromRaw constructors take
// externally owned arrays back after structural validation (R wraps them
// zero-copy; O copies them into its row blocks). Everything the kernels
// assume about the layouts — sort order, alignment of the
// index/probability slices, tube offsets — is re-checked here, because
// FromRaw inputs come from disk, not from the normalisation code that
// upholds those invariants by construction.

import "fmt"

// NodeRaw is the flat storage of a NodeTransition in the TMARKAR1
// layout: the stored nonzero probabilities in (k, j, i) order plus the
// sorted (k, j) list of non-dangling columns. Callers must not mutate
// its slices.
type NodeRaw struct {
	N, M       int
	I, J, K    []int32
	P          []float64
	ColJ, ColK []int32
}

// Raw returns the transition's storage for serialisation. The entry
// arrays are fresh: the (k, j, i) order is rebuilt from the row blocks
// by two stable counting passes, by j and then by k, since within one
// (j, k) column the blocks already list i ascending. The column lists
// alias the transition's own.
func (o *NodeTransition) Raw() NodeRaw {
	src := cooBuf{o.i, o.j, o.k, o.p}
	byJ, out := newCooBuf(len(o.p)), newCooBuf(len(o.p))
	countingPass(src.j, o.n, src, byJ)
	countingPass(byJ.k, o.m, byJ, out)
	return NodeRaw{N: o.n, M: o.m, I: out.i, J: out.j, K: out.k, P: out.v, ColJ: o.colJ, ColK: o.colK}
}

// NodeTransitionFromRaw builds a NodeTransition from externally owned
// arrays (typically views into an artifact's bytes). It copies
// them into its row blocks and keeps no reference to raw. Every
// structural invariant the kernels rely on is validated first: aligned
// lengths, indices in range, strict (k, j, i) entry order, strict (k, j)
// column order, and agreement between the entry runs and the column
// list. Probabilities are checked for finiteness and nonnegativity;
// exact column stochasticity is the encoder's job and is covered by the
// artifact checksum.
func NodeTransitionFromRaw(raw NodeRaw) (*NodeTransition, error) {
	if raw.N < 0 || raw.M < 0 {
		return nil, fmt.Errorf("tensor: raw O shape %dx%d negative", raw.N, raw.M)
	}
	nnz := len(raw.P)
	if len(raw.I) != nnz || len(raw.J) != nnz || len(raw.K) != nnz {
		return nil, fmt.Errorf("tensor: raw O arrays misaligned (i=%d j=%d k=%d p=%d)",
			len(raw.I), len(raw.J), len(raw.K), nnz)
	}
	if len(raw.ColJ) != len(raw.ColK) {
		return nil, fmt.Errorf("tensor: raw O column lists misaligned (%d vs %d)", len(raw.ColJ), len(raw.ColK))
	}
	if len(raw.ColJ) > nnz {
		return nil, fmt.Errorf("tensor: raw O has %d columns but only %d entries", len(raw.ColJ), nnz)
	}
	col := 0
	for q := 0; q < nnz; q++ {
		i, j, k := raw.I[q], raw.J[q], raw.K[q]
		if i < 0 || int(i) >= raw.N || j < 0 || int(j) >= raw.N || k < 0 || int(k) >= raw.M {
			return nil, fmt.Errorf("tensor: raw O entry %d index (%d,%d,%d) out of %dx%dx%d",
				q, i, j, k, raw.N, raw.N, raw.M)
		}
		if q > 0 {
			pk, pj, pi := raw.K[q-1], raw.J[q-1], raw.I[q-1]
			if k < pk || (k == pk && (j < pj || (j == pj && i <= pi))) {
				return nil, fmt.Errorf("tensor: raw O entries not strictly (k,j,i)-sorted at %d", q)
			}
		}
		if !finiteNonneg(raw.P[q]) {
			return nil, fmt.Errorf("tensor: raw O probability %v at entry %d", raw.P[q], q)
		}
		if q == 0 || raw.J[q] != raw.J[q-1] || raw.K[q] != raw.K[q-1] {
			// A new (j, k) column run must be the next column-list entry.
			if col >= len(raw.ColJ) || raw.ColJ[col] != j || raw.ColK[col] != k {
				return nil, fmt.Errorf("tensor: raw O column list disagrees with entries at run %d", col)
			}
			col++
		}
	}
	if col != len(raw.ColJ) {
		return nil, fmt.Errorf("tensor: raw O column list has %d extra columns", len(raw.ColJ)-col)
	}
	o, next := newNodeTransition(raw.N, raw.M, raw.I)
	for q, p := range raw.P {
		o.place(next, raw.I[q], raw.J[q], raw.K[q], p)
	}
	o.colJ = append([]int32(nil), raw.ColJ...)
	o.colK = append([]int32(nil), raw.ColK...)
	return o, nil
}

// RelationRaw is the flat storage of a RelationTransition: the stored
// probabilities in (j, i, k) order plus the sorted (j, i) tube list and
// the per-tube entry offsets (len(TubeI)+1, last == nnz).
type RelationRaw struct {
	N, M         int
	I, J, K      []int32
	P            []float64
	TubeI, TubeJ []int32
	TubeStart    []int32
}

// Raw exposes the transition's storage for serialisation.
func (r *RelationTransition) Raw() RelationRaw {
	return RelationRaw{N: r.n, M: r.m, I: r.i, J: r.j, K: r.k, P: r.p,
		TubeI: r.tubeI, TubeJ: r.tubeJ, TubeStart: r.tubeStart}
}

// RelationTransitionFromRaw wraps externally owned arrays as a
// RelationTransition, validating the (j, i, k) sort order, the tube
// list/offset agreement and index ranges. Like NodeTransitionFromRaw it
// aliases the arrays; they must stay immutable.
func RelationTransitionFromRaw(raw RelationRaw) (*RelationTransition, error) {
	if raw.N < 0 || raw.M < 0 {
		return nil, fmt.Errorf("tensor: raw R shape %dx%d negative", raw.N, raw.M)
	}
	nnz := len(raw.P)
	if len(raw.I) != nnz || len(raw.J) != nnz || len(raw.K) != nnz {
		return nil, fmt.Errorf("tensor: raw R arrays misaligned (i=%d j=%d k=%d p=%d)",
			len(raw.I), len(raw.J), len(raw.K), nnz)
	}
	tubes := len(raw.TubeI)
	if len(raw.TubeJ) != tubes {
		return nil, fmt.Errorf("tensor: raw R tube lists misaligned (%d vs %d)", tubes, len(raw.TubeJ))
	}
	if len(raw.TubeStart) != tubes+1 {
		return nil, fmt.Errorf("tensor: raw R has %d tubes but %d offsets (want %d)", tubes, len(raw.TubeStart), tubes+1)
	}
	if tubes > nnz || (nnz > 0 && tubes == 0) {
		return nil, fmt.Errorf("tensor: raw R tube count %d inconsistent with %d entries", tubes, nnz)
	}
	if len(raw.TubeStart) > 0 && int(raw.TubeStart[tubes]) != nnz {
		return nil, fmt.Errorf("tensor: raw R final tube offset %d, want %d", raw.TubeStart[tubes], nnz)
	}
	tube := 0
	for q := 0; q < nnz; q++ {
		i, j, k := raw.I[q], raw.J[q], raw.K[q]
		if i < 0 || int(i) >= raw.N || j < 0 || int(j) >= raw.N || k < 0 || int(k) >= raw.M {
			return nil, fmt.Errorf("tensor: raw R entry %d index (%d,%d,%d) out of %dx%dx%d",
				q, i, j, k, raw.N, raw.N, raw.M)
		}
		if q > 0 {
			pj, pi, pk := raw.J[q-1], raw.I[q-1], raw.K[q-1]
			if j < pj || (j == pj && (i < pi || (i == pi && k <= pk))) {
				return nil, fmt.Errorf("tensor: raw R entries not strictly (j,i,k)-sorted at %d", q)
			}
		}
		if !finiteNonneg(raw.P[q]) {
			return nil, fmt.Errorf("tensor: raw R probability %v at entry %d", raw.P[q], q)
		}
		if q == 0 || raw.I[q] != raw.I[q-1] || raw.J[q] != raw.J[q-1] {
			if tube >= tubes || raw.TubeI[tube] != i || raw.TubeJ[tube] != j || int(raw.TubeStart[tube]) != q {
				return nil, fmt.Errorf("tensor: raw R tube list disagrees with entries at run %d", tube)
			}
			tube++
		}
	}
	if tube != tubes {
		return nil, fmt.Errorf("tensor: raw R tube list has %d extra tubes", tubes-tube)
	}
	return &RelationTransition{
		n: raw.N, m: raw.M,
		i: raw.I, j: raw.J, k: raw.K, p: raw.P,
		tubeI: raw.TubeI, tubeJ: raw.TubeJ, tubeStart: raw.TubeStart,
	}, nil
}

// finiteNonneg reports whether p is a usable probability entry.
func finiteNonneg(p float64) bool {
	// NaN fails both comparisons; +Inf fails the upper bound.
	return p >= 0 && p <= 1.0000001
}
