package tmark

import (
	"fmt"
	"math/rand"
	"testing"

	"tmark/internal/tensor"
)

// irreducibleByLists is the oracle of Tensor.Irreducible: the same
// question answered on one forward and one reverse adjacency list per
// node, grown one append per entry, each walked from node 0.
func irreducibleByLists(a *tensor.Tensor) bool {
	if a.N() == 0 {
		return false
	}
	fwd := make([][]int32, a.N())
	rev := make([][]int32, a.N())
	a.Each(func(i, j, _ int, _ float64) {
		fwd[j] = append(fwd[j], int32(i))
		rev[i] = append(rev[i], int32(j))
	})
	return listReachesAll(fwd) && listReachesAll(rev)
}

func listReachesAll(adj [][]int32) bool {
	seen := make([]bool, len(adj))
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[u] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == len(adj)
}

// Tensor.Irreducible must agree with the list-based walk on random
// tensors, reducible and irreducible, with n = 0, 1 and 2 among them,
// and on the adjacency tensor of every hinShapes network.
func TestIrreducibleMatchesListWalk(t *testing.T) {
	verdicts := map[bool]int{}
	check := func(label string, a *tensor.Tensor) {
		t.Helper()
		got, want := a.Irreducible(), irreducibleByLists(a)
		if got != want {
			t.Fatalf("%s: Irreducible = %v, the list walk says %v", label, got, want)
		}
		verdicts[want]++
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 400; trial++ {
		n := trial % 3 // the first trials cover n = 0, 1 and 2 densely
		if trial >= 60 {
			n = 1 + rng.Intn(40)
		}
		m := 1 + rng.Intn(3)
		a := tensor.New(n, m)
		if n > 0 {
			for e := rng.Intn(3*n + 1); e > 0; e-- {
				a.Add(rng.Intn(n), rng.Intn(n), rng.Intn(m), 1+rng.Float64())
			}
			if trial%4 == 0 { // a ring through every node: irreducible
				for i := 0; i < n; i++ {
					a.Add((i+1)%n, i, rng.Intn(m), 1)
				}
			}
		}
		a.Finalize()
		check(fmt.Sprintf("trial %d (n=%d, %d entries)", trial, n, a.NNZ()), a)
	}
	for si, shape := range hinShapes {
		g := randomHIN(rand.New(rand.NewSource(int64(100+si))), shape)
		check(shape.name, g.AdjacencyTensor())
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts %v: want both reducible and irreducible tensors", verdicts)
	}
}
