package sparse

// Raw access to the CSR storage for the artifact codec: Raw exposes the
// flat arrays for serialisation and FromRaw re-wraps externally owned
// arrays (typically views into an artifact's bytes) after validating
// every invariant the kernels assume. The arrays are aliased, never
// copied — FromRaw inputs must stay immutable for the matrix's lifetime.

import "fmt"

// Raw is the flat CSR storage of a Matrix.
type Raw struct {
	Rows, Cols int
	RowPtr     []int32 // len Rows+1, nondecreasing, last == nnz
	ColIdx     []int32 // len nnz, strictly ascending within each row
	Values     []float64
}

// Raw exposes the matrix's storage for serialisation. The slices alias
// the matrix — callers must not mutate them.
func (m *Matrix) Raw() Raw {
	return Raw{Rows: m.rows, Cols: m.cols, RowPtr: m.rowPtr, ColIdx: m.colIdx, Values: m.values}
}

// FromRaw wraps externally owned CSR arrays as a Matrix, validating the
// row-pointer monotonicity, the per-row column ordering and the index
// ranges that MulVec dereferences without checks of its own.
func FromRaw(raw Raw) (*Matrix, error) {
	if raw.Rows < 0 || raw.Cols < 0 {
		return nil, fmt.Errorf("sparse: raw shape %dx%d negative", raw.Rows, raw.Cols)
	}
	if len(raw.RowPtr) != raw.Rows+1 {
		return nil, fmt.Errorf("sparse: raw rowPtr length %d, want %d", len(raw.RowPtr), raw.Rows+1)
	}
	nnz := len(raw.Values)
	if len(raw.ColIdx) != nnz {
		return nil, fmt.Errorf("sparse: raw colIdx length %d, values %d", len(raw.ColIdx), nnz)
	}
	if raw.RowPtr[0] != 0 || int(raw.RowPtr[raw.Rows]) != nnz {
		return nil, fmt.Errorf("sparse: raw rowPtr bounds [%d, %d], want [0, %d]",
			raw.RowPtr[0], raw.RowPtr[raw.Rows], nnz)
	}
	for r := 0; r < raw.Rows; r++ {
		lo, hi := raw.RowPtr[r], raw.RowPtr[r+1]
		if lo > hi || int(hi) > nnz {
			return nil, fmt.Errorf("sparse: raw rowPtr not monotone at row %d (%d > %d)", r, lo, hi)
		}
		for p := lo; p < hi; p++ {
			c := raw.ColIdx[p]
			if c < 0 || int(c) >= raw.Cols {
				return nil, fmt.Errorf("sparse: raw column %d out of %d at row %d", c, raw.Cols, r)
			}
			if p > lo && c <= raw.ColIdx[p-1] {
				return nil, fmt.Errorf("sparse: raw columns not strictly ascending in row %d", r)
			}
		}
	}
	return &Matrix{rows: raw.Rows, cols: raw.Cols, rowPtr: raw.RowPtr, colIdx: raw.ColIdx, values: raw.Values}, nil
}
