package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomBase builds a finalized tensor from random entries, with
// deliberate duplicate coordinates so the coalescing path is exercised.
func randomBase(rng *rand.Rand, n, m int) *Tensor {
	t := New(n, m)
	entries := rng.Intn(4 * n * m)
	for e := 0; e < entries; e++ {
		t.Add(rng.Intn(n), rng.Intn(n), rng.Intn(m), 0.1+rng.Float64())
	}
	t.Finalize()
	return t
}

// randomChanges draws one batch against the entries of a: updates and
// removes of a random subset, plus inserts at fresh coordinates. It
// returns each changed coordinate's final value (0 = removed).
func randomChanges(rng *rand.Rand, a COO) map[[3]int32]float64 {
	ch := map[[3]int32]float64{}
	for q := range a.V {
		c := [3]int32{a.I[q], a.J[q], a.K[q]}
		switch rng.Intn(4) {
		case 0: // update
			ch[c] = 0.1 + rng.Float64()
		case 1: // remove
			ch[c] = 0
		}
	}
	for e := rng.Intn(2 * a.N); e > 0; e-- {
		i, j, k := int32(rng.Intn(a.N)), int32(rng.Intn(a.N)), int32(rng.Intn(a.M))
		if _, ok := a.AtKJI(i, j, k); !ok {
			ch[[3]int32{i, j, k}] = 0.1 + rng.Float64()
		}
	}
	return ch
}

// sortedChanges lists a batch in the (k, j, i) order MergeKJI takes.
func sortedChanges(ch map[[3]int32]float64) []Change {
	out := make([]Change, 0, len(ch))
	for c, v := range ch {
		out = append(out, Change{I: c[0], J: c[1], K: c[2], V: v})
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		return keyKJI(x.I, x.J, x.K, y.I, y.J, y.K) < 0
	})
	return out
}

// entriesOf maps every stored coordinate of c to its value.
func entriesOf(c COO) map[[3]int32]float64 {
	out := make(map[[3]int32]float64, c.NNZ())
	for q, v := range c.V {
		out[[3]int32{c.I[q], c.J[q], c.K[q]}] = v
	}
	return out
}

// tensorFrom builds an n×n×m tensor from scratch, by Add and Finalize,
// over the given coordinate values.
func tensorFrom(n, m int, entries map[[3]int32]float64) *Tensor {
	t := New(n, m)
	for c, v := range entries {
		t.Add(int(c[0]), int(c[1]), int(c[2]), v)
	}
	t.Finalize()
	return t
}

// TestIncrementalBitwiseEquivalence is the property the stream engine's
// incremental merge rests on: after each batch of a random
// add/update/remove sequence, MergeKJI equals the from-scratch tensor of
// the mutated coordinates entry for entry, bitwise, and the O, R and
// irreducibility flag built over it through FromKJI equal the
// rebuild's.
func TestIncrementalBitwiseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n, m := 1+rng.Intn(8), 1+rng.Intn(3)
		base := randomBase(rng, n, m)
		a := base.COOView()
		for batch := 0; batch < 3; batch++ {
			ch := randomChanges(rng, a)
			merged, err := MergeKJI(a, sortedChanges(ch))
			if err != nil {
				t.Fatalf("trial %d batch %d: MergeKJI: %v", trial, batch, err)
			}
			cur := entriesOf(a)
			for c, v := range ch {
				if v == 0 {
					delete(cur, c)
				} else {
					cur[c] = v
				}
			}
			rebuilt := tensorFrom(n, m, cur)
			want := rebuilt.COOView()
			if merged.NNZ() != want.NNZ() {
				t.Fatalf("trial %d batch %d: merged nnz %d, rebuild %d", trial, batch, merged.NNZ(), want.NNZ())
			}
			for q := range want.V {
				if merged.I[q] != want.I[q] || merged.J[q] != want.J[q] || merged.K[q] != want.K[q] ||
					math.Float64bits(merged.V[q]) != math.Float64bits(want.V[q]) {
					t.Fatalf("trial %d batch %d: merged entry %d (%d,%d,%d)=%v, rebuild (%d,%d,%d)=%v",
						trial, batch, q, merged.I[q], merged.J[q], merged.K[q], merged.V[q],
						want.I[q], want.J[q], want.K[q], want.V[q])
				}
			}

			got, err := FromKJI(merged)
			if err != nil {
				t.Fatalf("trial %d batch %d: FromKJI: %v", trial, batch, err)
			}
			compareNodeRaw(t, trial, NewNodeTransition(got).Raw(), NewNodeTransition(rebuilt).Raw())
			compareRelationRaw(t, trial, NewRelationTransition(got).Raw(), NewRelationTransition(rebuilt).Raw())
			if g, w := got.Irreducible(), rebuilt.Irreducible(); g != w {
				t.Fatalf("trial %d batch %d: merged Irreducible=%v, rebuild says %v", trial, batch, g, w)
			}
			a = merged
		}
	}
}

func compareNodeRaw(t *testing.T, trial int, got, want NodeRaw) {
	t.Helper()
	if len(got.P) != len(want.P) || len(got.ColJ) != len(want.ColJ) {
		t.Fatalf("trial %d: O shape mismatch nnz %d/%d cols %d/%d",
			trial, len(got.P), len(want.P), len(got.ColJ), len(want.ColJ))
	}
	for q := range want.P {
		if got.I[q] != want.I[q] || got.J[q] != want.J[q] || got.K[q] != want.K[q] {
			t.Fatalf("trial %d: O entry %d index (%d,%d,%d) want (%d,%d,%d)",
				trial, q, got.I[q], got.J[q], got.K[q], want.I[q], want.J[q], want.K[q])
		}
		if math.Float64bits(got.P[q]) != math.Float64bits(want.P[q]) {
			t.Fatalf("trial %d: O entry %d probability %v not bitwise equal to rebuild %v",
				trial, q, got.P[q], want.P[q])
		}
	}
	for q := range want.ColJ {
		if got.ColJ[q] != want.ColJ[q] || got.ColK[q] != want.ColK[q] {
			t.Fatalf("trial %d: O column %d (%d,%d) want (%d,%d)",
				trial, q, got.ColJ[q], got.ColK[q], want.ColJ[q], want.ColK[q])
		}
	}
}

func compareRelationRaw(t *testing.T, trial int, got, want RelationRaw) {
	t.Helper()
	if len(got.P) != len(want.P) || len(got.TubeI) != len(want.TubeI) {
		t.Fatalf("trial %d: R shape mismatch nnz %d/%d tubes %d/%d",
			trial, len(got.P), len(want.P), len(got.TubeI), len(want.TubeI))
	}
	for q := range want.P {
		if got.I[q] != want.I[q] || got.J[q] != want.J[q] || got.K[q] != want.K[q] {
			t.Fatalf("trial %d: R entry %d index (%d,%d,%d) want (%d,%d,%d)",
				trial, q, got.I[q], got.J[q], got.K[q], want.I[q], want.J[q], want.K[q])
		}
		if math.Float64bits(got.P[q]) != math.Float64bits(want.P[q]) {
			t.Fatalf("trial %d: R entry %d probability %v not bitwise equal to rebuild %v",
				trial, q, got.P[q], want.P[q])
		}
	}
	for q := range want.TubeI {
		if got.TubeI[q] != want.TubeI[q] || got.TubeJ[q] != want.TubeJ[q] || got.TubeStart[q] != want.TubeStart[q] {
			t.Fatalf("trial %d: R tube %d mismatch", trial, q)
		}
	}
	if got.TubeStart[len(got.TubeI)] != want.TubeStart[len(want.TubeI)] {
		t.Fatalf("trial %d: R final tube offset mismatch", trial)
	}
}

func TestMergeRejectsBadChanges(t *testing.T) {
	base := New(3, 2)
	base.Add(1, 0, 0, 1)
	base.Add(2, 1, 1, 1)
	base.Finalize()
	a := base.COOView()
	cases := []struct {
		name string
		ch   []Change
	}{
		{"unsorted", []Change{{I: 2, J: 2, K: 1, V: 1}, {I: 0, J: 0, K: 0, V: 1}}},
		{"duplicate", []Change{{I: 1, J: 0, K: 0, V: 1}, {I: 1, J: 0, K: 0, V: 2}}},
		{"remove-absent", []Change{{I: 0, J: 0, K: 0, V: 0}}},
		{"out-of-range", []Change{{I: 3, J: 0, K: 0, V: 1}}},
		{"negative", []Change{{I: 0, J: 0, K: 0, V: -1}}},
		{"nan", []Change{{I: 0, J: 0, K: 0, V: math.NaN()}}},
		{"inf", []Change{{I: 0, J: 0, K: 0, V: math.Inf(1)}}},
	}
	for _, tc := range cases {
		if _, err := MergeKJI(a, tc.ch); err == nil {
			t.Errorf("MergeKJI(%s): want error", tc.name)
		}
	}
}

func TestMergeEmptyChangesIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomBase(rng, 5, 2)
	a := base.COOView()
	merged, err := MergeKJI(a, nil)
	if err != nil {
		t.Fatalf("MergeKJI: %v", err)
	}
	if merged.NNZ() != a.NNZ() {
		t.Fatalf("identity merge changed nnz %d -> %d", a.NNZ(), merged.NNZ())
	}
	for q := range a.V {
		if merged.I[q] != a.I[q] || merged.J[q] != a.J[q] || merged.K[q] != a.K[q] ||
			math.Float64bits(merged.V[q]) != math.Float64bits(a.V[q]) {
			t.Fatalf("identity merge altered entry %d", q)
		}
	}
}

func TestAtKJI(t *testing.T) {
	base := New(4, 2)
	base.Add(1, 0, 0, 2.5)
	base.Add(3, 2, 1, 1.5)
	base.Finalize()
	a := base.COOView()
	if v, ok := a.AtKJI(1, 0, 0); !ok || v != 2.5 {
		t.Fatalf("AtKJI(1,0,0) = %v,%v", v, ok)
	}
	if v, ok := a.AtKJI(3, 2, 1); !ok || v != 1.5 {
		t.Fatalf("AtKJI(3,2,1) = %v,%v", v, ok)
	}
	if _, ok := a.AtKJI(0, 0, 0); ok {
		t.Fatal("AtKJI found absent entry")
	}
}

// TestFromKJI: a finalized tensor's COO wraps back into an equal tensor
// whose later Adds leave the wrapped arrays alone, and a list that
// breaks any of FromKJI's rules is an error.
func TestFromKJI(t *testing.T) {
	good := func() COO {
		base := New(3, 2)
		base.Add(1, 0, 0, 1)
		base.Add(2, 1, 0, 2)
		base.Add(0, 2, 1, 3)
		base.Finalize()
		// Spare capacity, as MergeKJI's arrays have.
		c := base.COOView()
		return COO{N: c.N, M: c.M,
			I: append(make([]int32, 0, 8), c.I...), J: append(make([]int32, 0, 8), c.J...),
			K: append(make([]int32, 0, 8), c.K...), V: append(make([]float64, 0, 8), c.V...)}
	}
	c := good()
	a, err := FromKJI(c)
	if err != nil {
		t.Fatalf("FromKJI: %v", err)
	}
	if a.NNZ() != 3 || a.At(2, 1, 0) != 2 || a.At(0, 2, 1) != 3 {
		t.Fatalf("wrapped tensor: nnz %d, a[2,1,0]=%v, a[0,2,1]=%v", a.NNZ(), a.At(2, 1, 0), a.At(0, 2, 1))
	}
	a.Add(0, 0, 0, 5)
	a.Add(2, 2, 1, 7)
	a.Finalize()
	if want := good(); !reflect.DeepEqual(c, want) {
		t.Fatalf("Add and Finalize on the wrapped tensor rewrote its arrays: %+v, want %+v", c, want)
	}

	swap := func(c *COO, p, q int) {
		c.I[p], c.I[q] = c.I[q], c.I[p]
		c.J[p], c.J[q] = c.J[q], c.J[p]
		c.K[p], c.K[q] = c.K[q], c.K[p]
		c.V[p], c.V[q] = c.V[q], c.V[p]
	}
	cases := []struct {
		name string
		bad  func(c *COO)
	}{
		{"out-of-range", func(c *COO) { c.I[1] = 3 }},
		{"negative-index", func(c *COO) { c.K[0] = -1 }},
		{"swapped", func(c *COO) { swap(c, 0, 1) }},
		{"duplicate", func(c *COO) { c.I[1], c.J[1], c.K[1] = c.I[0], c.J[0], c.K[0] }},
		{"zero", func(c *COO) { c.V[2] = 0 }},
		{"negative", func(c *COO) { c.V[0] = -1 }},
		{"nan", func(c *COO) { c.V[1] = math.NaN() }},
		{"inf", func(c *COO) { c.V[1] = math.Inf(1) }},
		{"misaligned", func(c *COO) { c.J = c.J[:2] }},
		{"negative-shape", func(c *COO) { c.M = -1 }},
	}
	for _, tc := range cases {
		c := good()
		tc.bad(&c)
		if _, err := FromKJI(c); err == nil {
			t.Errorf("FromKJI(%s): want error", tc.name)
		}
	}
}
