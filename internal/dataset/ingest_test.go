package dataset

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

const cooSample = `# tiny two-class network
coo 4 2 2
r 0 cites!
r 1 coauthor
l 0 0
l 3 1
e 0 0 1 2.5
e 0 1 2
e 1 2 3 0.5
e 1 3 0
`

func TestReadCOO(t *testing.T) {
	g, err := ReadCOO(strings.NewReader(cooSample))
	if err != nil {
		t.Fatalf("ReadCOO: %v", err)
	}
	if g.N() != 4 || g.M() != 2 || g.Q() != 2 {
		t.Fatalf("dims (%d, %d, %d), want (4, 2, 2)", g.N(), g.M(), g.Q())
	}
	if g.Relations[0].Name != "cites" || !g.Relations[0].Directed {
		t.Errorf("relation 0 = %q directed %v, want cites directed", g.Relations[0].Name, g.Relations[0].Directed)
	}
	if g.Relations[1].Name != "coauthor" || g.Relations[1].Directed {
		t.Errorf("relation 1 = %q directed %v, want coauthor undirected", g.Relations[1].Name, g.Relations[1].Directed)
	}
	if !g.HasLabel(0, 0) || !g.HasLabel(3, 1) || g.Labeled(1) || g.Labeled(2) {
		t.Errorf("labels wrong: %v %v %v %v", g.Nodes[0].Labels, g.Nodes[1].Labels, g.Nodes[2].Labels, g.Nodes[3].Labels)
	}
	if len(g.Relations[0].Edges) != 2 || len(g.Relations[1].Edges) != 2 {
		t.Fatalf("edge counts %d/%d, want 2/2", len(g.Relations[0].Edges), len(g.Relations[1].Edges))
	}
	if w := g.Relations[0].Edges[0].Weight; w != 2.5 {
		t.Errorf("edge weight %v, want 2.5", w)
	}
	if w := g.Relations[0].Edges[1].Weight; w != 1 {
		t.Errorf("default edge weight %v, want 1", w)
	}
}

func TestReadCOOMultiLabel(t *testing.T) {
	in := "coo 2 1 3\nl 0 2\nl 0 0\ne 0 0 1\n"
	g, err := ReadCOO(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCOO: %v", err)
	}
	if !g.HasLabel(0, 0) || !g.HasLabel(0, 2) || g.HasLabel(0, 1) {
		t.Fatalf("node 0 labels %v, want [0 2]", g.Nodes[0].Labels)
	}
}

// A header's class count costs linear time: 200,000 declared classes
// parse well inside a bound that a per-class duplicate scan (about 30 s
// at this q) misses by far.
func TestReadCOOManyClassesLinear(t *testing.T) {
	const q = 200000
	start := time.Now()
	g, err := ReadCOO(strings.NewReader("coo 3 2 200000\ne 0 0 1\n"))
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("a %d-class header took %v, want well under 3 s", q, took)
	}
	if err != nil {
		t.Fatalf("ReadCOO: %v", err)
	}
	if g.Q() != q || g.Classes[0] != "c0" || g.Classes[q-1] != "c199999" {
		t.Fatalf("classes: %d, first %q, last %q", g.Q(), g.Classes[0], g.Classes[g.Q()-1])
	}
}

// A header may declare at most cooNodesPerByte nodes and relations and
// cooClassesPerByte classes per byte of input, and the reader rejects it
// before it builds any of them: the first input would otherwise
// allocate 350 MB and the second, 23 bytes long, 90 MB.
func TestReadCOOHeaderCappedByInputSize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"coo 1048576 1 1\ne 0 0 1\n", fmt.Sprintf("1048577 nodes and relations in 24 bytes of input, over the cap of %d per byte", cooNodesPerByte)},
		{"coo 229000 1 1\ne 0 0 1\n", fmt.Sprintf("229001 nodes and relations in 23 bytes of input, over the cap of %d per byte", cooNodesPerByte)},
		{"coo 2 1 230001\ne 0 0 1\n", fmt.Sprintf("230001 classes in 23 bytes of input, over the cap of %d per byte", cooClassesPerByte)},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadCOO(strings.NewReader(c.in))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ReadCOO(%q) = %v, want %q", c.in, err, c.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("rejecting the %d-byte input %q allocated %d bytes, want under 1 MB", len(c.in), c.in, alloc)
		}
	}
}

// At the node cap a header builds about 1.4 KB of graph per byte of
// input: an 8 KB input declaring exactly cooNodesPerByte nodes and
// relations per byte is accepted and allocates under 2 KB per input
// byte, and one more node is rejected.
func TestReadCOOAllocationPerByteAtNodeCap(t *testing.T) {
	const size = 8192
	input := func(n int) string {
		head := fmt.Sprintf("coo %d 1 1\ne 0 0 1\n", n)
		return head + "#" + strings.Repeat("x", size-len(head)-2) + "\n"
	}
	n := cooNodesPerByte*size - 1 // plus one relation: exactly at the cap
	in := input(n)
	if len(in) != size {
		t.Fatalf("input is %d bytes, want %d", len(in), size)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := ReadCOO(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("ReadCOO at the cap: %v", err)
	}
	if g.N() != n || g.M() != 1 {
		t.Fatalf("built (%d nodes, %d relations), want (%d, 1)", g.N(), g.M(), n)
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / size
	t.Logf("%d nodes from %d bytes: %.0f bytes allocated per input byte", n, size, perByte)
	if perByte >= 2048 {
		t.Fatalf("allocated %.0f bytes per input byte at the cap, want under 2048", perByte)
	}
	if _, err := ReadCOO(strings.NewReader(input(n + 1))); err == nil {
		t.Fatalf("one node over the cap accepted")
	}
}

func TestReadCOOErrors(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"no header":          "e 0 0 1\n",
		"bad header":         "coo 4 2\n",
		"zero nodes":         "coo 0 1 1\ne 0 0 0\n",
		"huge dims":          "coo 99999999999 1 1\n",
		"relation range":     "coo 2 1 1\ne 1 0 1\n",
		"node range":         "coo 2 1 1\ne 0 0 2\n",
		"negative node":      "coo 2 1 1\ne 0 -1 1\n",
		"class range":        "coo 2 1 1\nl 0 1\ne 0 0 1\n",
		"nan weight":         "coo 2 1 1\ne 0 0 1 NaN\n",
		"inf weight":         "coo 2 1 1\ne 0 0 1 Inf\n",
		"overflow weight":    "coo 2 1 1\ne 0 0 1 1e999\n",
		"zero weight":        "coo 2 1 1\ne 0 0 1 0\n",
		"negative weight":    "coo 2 1 1\ne 0 0 1 -3\n",
		"duplicate edge":     "coo 2 1 1\ne 0 0 1 2\ne 0 0 1 5\n",
		"duplicate label":    "coo 2 1 1\nl 0 0\nl 0 0\ne 0 0 1\n",
		"duplicate relation": "coo 2 1 1\nr 0 a\nr 0 b\ne 0 0 1\n",
		"unknown record":     "coo 2 1 1\nx 0 0 1\n",
		"short edge":         "coo 2 1 1\ne 0 0\n",
		"no edges":           "coo 2 1 1\nl 0 0\n",
		"empty rel name":     "coo 2 1 1\nr 0 !\ne 0 0 1\n",
	}
	for name, in := range cases {
		if _, err := ReadCOO(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}
