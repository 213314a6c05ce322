package tmark

import (
	"context"
	"math"
	"strings"
	"testing"

	"tmark/internal/vec"
)

// TestColumnWarmStartSameModel: re-solving a query seeded with its own
// converged (x̄, z̄) must converge immediately (the state is already a
// fixed point) and land on the same answer.
func TestColumnWarmStartSameModel(t *testing.T) {
	m, err := New(labelledChain(40, 5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := ColumnQuery{Seeds: []int{0, 5, 10}}
	cold, err := m.SolveColumn(context.Background(), q)
	if err != nil {
		t.Fatalf("cold SolveColumn: %v", err)
	}
	q.Warm = &WarmStart{X: cold.X, Z: cold.Z}
	warm, err := m.SolveColumn(context.Background(), q)
	if err != nil {
		t.Fatalf("warm SolveColumn: %v", err)
	}
	if !warm.Converged {
		t.Fatal("warm solve did not converge")
	}
	if warm.Iterations > 2 {
		t.Fatalf("warm restart from own fixed point took %d iterations", warm.Iterations)
	}
	if d := vec.Diff1(cold.X, warm.X); d > 1e-9 {
		t.Fatalf("warm X drifted %v from cold", d)
	}
	if d := vec.Diff1(cold.Z, warm.Z); d > 1e-9 {
		t.Fatalf("warm Z drifted %v from cold", d)
	}
}

// TestColumnWarmStartBatchMatchesSequential: warm queries through the
// engine must behave exactly like the oracle's warm solve (the bitwise
// contract extends to warm starts).
func TestColumnWarmStartBatchMatchesSequential(t *testing.T) {
	m, err := New(labelledChain(40, 5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := []ColumnQuery{
		{Seeds: []int{0, 5}},
		{Seeds: []int{10, 15}},
	}
	colds, err := m.SolveColumns(context.Background(), queries)
	if err != nil {
		t.Fatalf("cold SolveColumns: %v", err)
	}
	for i := range queries {
		queries[i].Warm = &WarmStart{X: colds[i].X, Z: colds[i].Z}
	}
	batch, err := m.SolveColumns(context.Background(), queries)
	if err != nil {
		t.Fatalf("warm SolveColumns: %v", err)
	}
	o := newOracle(t, m)
	for i, q := range queries {
		seq := o.solveColumn(t, q)
		for j := range seq.X {
			if batch[i].X[j] != seq.X[j] {
				t.Fatalf("query %d x[%d]: batch %v, seq %v (bitwise)", i, j, batch[i].X[j], seq.X[j])
			}
		}
		if batch[i].Iterations != seq.Iterations {
			t.Fatalf("query %d: batch %d iterations, seq %d", i, batch[i].Iterations, seq.Iterations)
		}
	}
}

// TestColumnWarmStartValidation: malformed warm states are rejected
// before any iteration runs.
func TestColumnWarmStartValidation(t *testing.T) {
	m, err := New(labelledChain(20, 5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, mm := 20, m.graph.M()
	good := func() *WarmStart {
		return &WarmStart{X: vec.Uniform(n), Z: vec.Uniform(mm)}
	}
	cases := []struct {
		name string
		warm *WarmStart
		want string
	}{
		{"short x", &WarmStart{X: vec.Uniform(n - 1), Z: vec.Uniform(mm)}, "warm start"},
		{"short z", &WarmStart{X: vec.Uniform(n), Z: vec.Uniform(mm + 1)}, "warm start"},
		{"nan x", func() *WarmStart { w := good(); w.X[3] = math.NaN(); return w }(), "finite"},
		{"negative z", func() *WarmStart { w := good(); w.Z[0] = -1; return w }(), "non-negative"},
		{"zero mass", &WarmStart{X: vec.New(n), Z: vec.Uniform(mm)}, "no mass"},
	}
	for _, tc := range cases {
		q := ColumnQuery{Seeds: []int{0}, Warm: tc.warm}
		if _, err := m.SolveColumn(context.Background(), q); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// The warm vectors are copied: mutating the caller's slices after
	// the call must not affect a later solve.
	w := good()
	q := ColumnQuery{Seeds: []int{0}, Warm: w}
	r1, err := m.SolveColumn(context.Background(), q)
	if err != nil {
		t.Fatalf("SolveColumn: %v", err)
	}
	w.X[0] = math.NaN() // would poison a solve that aliased it
	r2, err := m.SolveColumn(context.Background(), ColumnQuery{Seeds: []int{0}, Warm: good()})
	if err != nil {
		t.Fatalf("SolveColumn after mutation: %v", err)
	}
	if d := vec.Diff1(r1.X, r2.X); d > 0 {
		t.Fatalf("solves diverged by %v after caller-side mutation", d)
	}
}
