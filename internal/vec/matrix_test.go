package vec

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewMatrixAndAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2)
	if got := m.At(1, 2); got != 7 {
		t.Errorf("At(1,2) = %v, want 7", got)
	}
	if got := m.Row(1); got[2] != 7 {
		t.Errorf("Row(1) = %v, want last entry 7", got)
	}
}

func TestFromRowsAndIdentity(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows layout wrong: %v", m.Data)
	}
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("Identity(3)[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("FromRows with ragged rows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	dst := New(3)
	m.MulVec(Vector{1, 1}, dst)
	want := Vector{3, 7, 11}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", dst, want)
		}
	}
}

func TestMulVecT(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	dst := New(2)
	m.MulVecT(Vector{1, 0, 1}, dst)
	want := Vector{6, 8}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecT = %v, want %v", dst, want)
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	c := Mul(a, b)
	want := FromRows([][]float64{{2, 1}, {4, 3}})
	for i := range want.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("Mul = %v, want %v", c.Data, want.Data)
		}
	}
}

func TestNormalizeColumnsUniformFill(t *testing.T) {
	m := FromRows([][]float64{
		{1, 0},
		{3, 0},
	})
	zero := m.NormalizeColumns(true)
	if zero != 1 {
		t.Errorf("zero columns = %d, want 1", zero)
	}
	if !m.IsColumnStochastic(1e-12) {
		t.Errorf("matrix not column stochastic after normalisation:\n%v", m)
	}
	if m.At(0, 1) != 0.5 || m.At(1, 1) != 0.5 {
		t.Errorf("dangling column not uniform: %v %v", m.At(0, 1), m.At(1, 1))
	}
	if m.At(0, 0) != 0.25 || m.At(1, 0) != 0.75 {
		t.Errorf("column 0 wrong: %v %v", m.At(0, 0), m.At(1, 0))
	}
}

func TestNormalizeColumnsNoFill(t *testing.T) {
	m := FromRows([][]float64{{0}, {0}})
	zero := m.NormalizeColumns(false)
	if zero != 1 {
		t.Errorf("zero columns = %d, want 1", zero)
	}
	if m.At(0, 0) != 0 || m.At(1, 0) != 0 {
		t.Errorf("no-fill mode must leave zero columns at zero")
	}
}

func TestIsColumnStochasticRejects(t *testing.T) {
	m := FromRows([][]float64{{0.5}, {0.6}})
	if m.IsColumnStochastic(1e-9) {
		t.Errorf("column summing to 1.1 should not be stochastic")
	}
	m2 := FromRows([][]float64{{-0.1}, {1.1}})
	if m2.IsColumnStochastic(1e-9) {
		t.Errorf("negative entry should not be stochastic")
	}
}

func TestCloneMatrix(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Errorf("Clone shares storage")
	}
}

func TestStringFormat(t *testing.T) {
	m := FromRows([][]float64{{0.5, 0.25}})
	s := m.String()
	if !strings.Contains(s, "0.5000 0.2500") {
		t.Errorf("String = %q", s)
	}
}

// Property: MulVec with a column-stochastic matrix preserves the simplex.
func TestStochasticMulVecPreservesSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		m.NormalizeColumns(true)
		x := make(Vector, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		if !Normalize1(x) {
			continue
		}
		dst := New(n)
		m.MulVec(x, dst)
		if !IsStochastic(dst, 1e-9) {
			t.Fatalf("trial %d: stochastic matvec left simplex: sum=%v", trial, Sum(dst))
		}
	}
}

func TestMulVecAliasingPanics(t *testing.T) {
	m := Identity(2)
	x := Vector{1, 2}
	dstShort := New(1)
	defer func() {
		if recover() == nil {
			t.Errorf("MulVec with wrong dst length should panic")
		}
	}()
	m.MulVec(x, dstShort)
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Mul with mismatched shapes should panic")
		}
	}()
	Mul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestNormalizeColumnsEmptyMatrix(t *testing.T) {
	m := NewMatrix(0, 0)
	if got := m.NormalizeColumns(true); got != 0 {
		t.Errorf("empty matrix zero columns = %d, want 0", got)
	}
	if math.IsNaN(Sum(m.Data)) {
		t.Errorf("empty matrix produced NaN")
	}
}
