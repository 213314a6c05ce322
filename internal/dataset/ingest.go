package dataset

// COO ingest: a line-oriented sparse-coordinate text format for loading
// an adjacency tensor (plus labels) directly, without going through the
// JSON codec. The format mirrors how the paper presents the model — the
// HIN *is* the (m, n, n) tensor — and is trivial to emit from numpy /
// MATLAB dumps of real datasets:
//
//	# comments and blank lines are ignored
//	coo <n> <m> <q>          header: nodes, relations, classes (first line)
//	r <k> <name>[!]          optional relation naming; "!" marks directed
//	l <i> <c>                label: node i belongs to class c
//	e <k> <i> <j> [w]        tensor entry: edge i→j of relation k, weight w (default 1)
//
// The reader is strict: indices must be in range, weights positive and
// finite, and duplicate coordinates (the classic COO ambiguity — does a
// repeated (k,i,j) sum or overwrite?) are an error rather than a silent
// policy choice. Malformed input must always surface as an error, never
// a panic: ReadCOO is fuzzed (FuzzReadCOO).

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tmark/internal/hin"
)

// cooMaxDim bounds the declared header dimensions so a hostile header
// ("coo 9999999999 9999999999 1") cannot make the reader allocate
// unboundedly before any real content is seen.
const cooMaxDim = 1 << 24

// cooNodesPerByte caps the declared nodes and relations together at
// this many per byte of input, comments included. Building a declared
// node costs about 350 bytes, so the cap holds a header to about 1.4 KB
// of graph per input byte. An edge line is at least 8 bytes and names
// at most two nodes, so the cap still admits 16 times more nodes than
// the edges can name.
const cooNodesPerByte = 4

// cooClassesPerByte caps the declared classes at this many per byte of
// input. A class costs about 120 bytes, and the cap admits a 22-byte
// header of 200,000 classes.
const cooClassesPerByte = 10000

// ReadCOO builds a graph from the COO text format above. It reads and
// checks the whole body before it builds anything, so a header that
// declares more than cooNodesPerByte nodes and relations, or more than
// cooClassesPerByte classes, per byte of input is rejected before it
// allocates them.
func ReadCOO(r io.Reader) (*hin.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	line, read := 0, 0
	next := func() ([]string, bool) {
		for sc.Scan() {
			line++
			read += len(sc.Bytes()) + 1
			text := sc.Text()
			if i := strings.IndexByte(text, '#'); i >= 0 {
				text = text[:i]
			}
			fields := strings.Fields(text)
			if len(fields) > 0 {
				return fields, true
			}
		}
		return nil, false
	}

	header, ok := next()
	if !ok {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("dataset: coo: %w", err)
		}
		return nil, fmt.Errorf("dataset: coo: empty input, want 'coo n m q' header")
	}
	if len(header) != 4 || header[0] != "coo" {
		return nil, fmt.Errorf("dataset: coo line %d: header %q, want 'coo n m q'", line, strings.Join(header, " "))
	}
	dims := make([]int, 3)
	for i, name := range []string{"n", "m", "q"} {
		v, err := strconv.Atoi(header[i+1])
		if err != nil {
			return nil, fmt.Errorf("dataset: coo line %d: %s: %w", line, name, err)
		}
		if v < 1 || v > cooMaxDim {
			return nil, fmt.Errorf("dataset: coo line %d: %s = %d out of range [1, %d]", line, name, v, cooMaxDim)
		}
		dims[i] = v
	}
	n, m, q := dims[0], dims[1], dims[2]

	index := func(fields []string, pos, limit int, what string) (int, error) {
		v, err := strconv.Atoi(fields[pos])
		if err != nil {
			return 0, fmt.Errorf("dataset: coo line %d: %s %q: %w", line, what, fields[pos], err)
		}
		if v < 0 || v >= limit {
			return 0, fmt.Errorf("dataset: coo line %d: %s %d out of range [0, %d)", line, what, v, limit)
		}
		return v, nil
	}

	type coord struct{ k, i, j int }
	type edge struct {
		coord
		w float64
	}
	type labelCoord struct{ i, c int }
	type relation struct {
		name     string
		directed bool
	}
	var edges []edge
	var labels []labelCoord
	seenEdge := make(map[coord]bool)
	seenLabel := make(map[labelCoord]bool)
	relations := make(map[int]relation)

	for {
		fields, ok := next()
		if !ok {
			break
		}
		switch fields[0] {
		case "e":
			if len(fields) != 4 && len(fields) != 5 {
				return nil, fmt.Errorf("dataset: coo line %d: edge wants 'e k i j [w]', got %d fields", line, len(fields))
			}
			k, err := index(fields, 1, m, "relation")
			if err != nil {
				return nil, err
			}
			i, err := index(fields, 2, n, "from node")
			if err != nil {
				return nil, err
			}
			j, err := index(fields, 3, n, "to node")
			if err != nil {
				return nil, err
			}
			w := 1.0
			if len(fields) == 5 {
				w, err = strconv.ParseFloat(fields[4], 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: coo line %d: weight %q: %w", line, fields[4], err)
				}
				if err := hin.ValidWeight(w); err != nil {
					return nil, fmt.Errorf("dataset: coo line %d: %v", line, err)
				}
			}
			at := coord{k, i, j}
			if seenEdge[at] {
				return nil, fmt.Errorf("dataset: coo line %d: duplicate entry (%d, %d, %d)", line, k, i, j)
			}
			seenEdge[at] = true
			edges = append(edges, edge{at, w})
		case "l":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: coo line %d: label wants 'l i c', got %d fields", line, len(fields))
			}
			i, err := index(fields, 1, n, "node")
			if err != nil {
				return nil, err
			}
			c, err := index(fields, 2, q, "class")
			if err != nil {
				return nil, err
			}
			at := labelCoord{i, c}
			if seenLabel[at] {
				return nil, fmt.Errorf("dataset: coo line %d: duplicate label (%d, %d)", line, i, c)
			}
			seenLabel[at] = true
			labels = append(labels, at)
		case "r":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: coo line %d: relation wants 'r k name', got %d fields", line, len(fields))
			}
			k, err := index(fields, 1, m, "relation")
			if err != nil {
				return nil, err
			}
			if _, ok := relations[k]; ok {
				return nil, fmt.Errorf("dataset: coo line %d: duplicate relation declaration %d", line, k)
			}
			name, directed := strings.CutSuffix(fields[2], "!")
			if name == "" {
				return nil, fmt.Errorf("dataset: coo line %d: empty relation name", line)
			}
			relations[k] = relation{name, directed}
		default:
			return nil, fmt.Errorf("dataset: coo line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: coo: %w", err)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("dataset: coo: no edges")
	}
	if n+m > cooNodesPerByte*read {
		return nil, fmt.Errorf("dataset: coo: header declares %d nodes and relations in %d bytes of input, over the cap of %d per byte",
			n+m, read, cooNodesPerByte)
	}
	if q > cooClassesPerByte*read {
		return nil, fmt.Errorf("dataset: coo: header declares %d classes in %d bytes of input, over the cap of %d per byte",
			q, read, cooClassesPerByte)
	}

	// The names c0…c(q−1) are unique by construction, so they skip
	// AddClass's duplicate scan, which would make the header O(q²).
	classes := make([]string, q)
	for c := range classes {
		classes[c] = fmt.Sprintf("c%d", c)
	}
	g := hin.New(classes...)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), nil)
	}
	for k := 0; k < m; k++ {
		rel, ok := relations[k]
		if !ok {
			rel.name = fmt.Sprintf("r%d", k)
		}
		g.AddRelation(rel.name, rel.directed)
	}
	for _, e := range edges {
		g.AddWeightedEdge(e.k, e.i, e.j, e.w)
	}
	for _, l := range labels {
		g.SetLabels(l.i, append(append([]int{}, g.Nodes[l.i].Labels...), l.c)...)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: coo: %w", err)
	}
	return g, nil
}
