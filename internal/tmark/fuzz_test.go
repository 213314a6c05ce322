package tmark

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tmark/internal/dataset"
	"tmark/internal/hin"
)

// The HIN formats the model builds from, in the order FuzzModelBuild's
// format byte selects them, with the corpus of each parser's own fuzz
// target.
var fuzzFormats = []struct {
	corpus string
	parse  func([]byte) (*hin.Graph, error)
}{
	{"../hin/testdata/fuzz/FuzzReadJSON", func(b []byte) (*hin.Graph, error) { return hin.ReadJSON(bytes.NewReader(b)) }},
	{"../hin/testdata/fuzz/FuzzReadEdgeCSV", func(b []byte) (*hin.Graph, error) { return hin.ReadEdgeCSV(bytes.NewReader(b)) }},
	{"../dataset/testdata/fuzz/FuzzReadCOO", func(b []byte) (*hin.Graph, error) { return dataset.ReadCOO(bytes.NewReader(b)) }},
}

// fuzzMaxNodes and fuzzMaxRelations bound the graphs FuzzModelBuild
// builds, so each execution stays in the milliseconds: the dense
// feature channel alone is n×n.
const (
	fuzzMaxNodes     = 64
	fuzzMaxRelations = 16
)

// FuzzModelBuild carries the parsers' fuzzing on into the model: every
// graph that hin.ReadJSON, hin.ReadEdgeCSV or dataset.ReadCOO accepts
// with at most 64 nodes and 16 relations goes through New and one
// SolveColumn, which must never panic. format%3 picks the parser, and
// an odd format/3 builds the top-2 sparse feature channel instead of
// the dense one. A graph with no class gets one, and a graph with no
// labelled node gets node 0 labelled in class 0 (an edge-list CSV
// carries neither), so New builds it rather than refusing it. Seeded
// from the three parsers' corpora.
func FuzzModelBuild(f *testing.F) {
	for format, ff := range fuzzFormats {
		for _, data := range corpusEntries(f, ff.corpus) {
			f.Add(uint8(format), data)
			f.Add(uint8(format+3), data)
		}
	}
	f.Add(uint8(0), []byte(`{"version":1,"classes":["a","b"],"nodes":[{"name":"x","features":[1,0],"labels":[0]},{"name":"y","features":[0,1],"labels":[1]},{"name":"z","features":[1,1]}],"relations":[{"name":"r","edges":[[0,2,1000000],[2,1,2000000]]}]}`))
	f.Add(uint8(1), []byte("from,to,relation,weight\na,b,r,1\nb,c,r!,2\nc,a,s,0.5"))
	f.Add(uint8(2), []byte("coo 4 2 2\nr 1 cites!\nl 0 0\nl 3 1\ne 0 0 1\ne 0 1 2 2\ne 1 2 3\ne 1 3 0 0.5\n"))
	f.Fuzz(func(t *testing.T, format uint8, data []byte) {
		g, err := fuzzFormats[int(format)%len(fuzzFormats)].parse(data)
		if err != nil || g.N() == 0 || g.N() > fuzzMaxNodes || g.M() > fuzzMaxRelations {
			return
		}
		if g.Q() == 0 {
			g.AddClass("c")
		}
		labelled := false
		for i := range g.Nodes {
			labelled = labelled || g.Labeled(i)
		}
		if !labelled {
			g.SetLabels(0, 0)
		}
		cfg := DefaultConfig()
		cfg.Workers = 1
		if format/3%2 == 1 {
			cfg.FeatureTopK = 2
		}
		m, err := New(g, cfg)
		if err != nil {
			return
		}
		if _, err := m.SolveColumn(context.Background(), ColumnQuery{Seeds: []int{0}, ICA: true}); err != nil {
			t.Fatalf("SolveColumn on a built model: %v", err)
		}
	})
}

// corpusEntries reads a go fuzz corpus directory of one-value entries:
// each file is the "go test fuzz v1" line and one []byte("…") or
// string("…") line.
func corpusEntries(f *testing.F, dir string) [][]byte {
	f.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("corpus %s: %d files (%v)", dir, len(files), err)
	}
	var out [][]byte
	for _, p := range files {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutSuffix(value, ")")
		if ok {
			lit, ok = strings.CutPrefix(lit, "[]byte(")
			if !ok {
				lit, ok = strings.CutPrefix(lit, "string(")
			}
		}
		s, err := strconv.Unquote(lit)
		if header != "go test fuzz v1" || !ok || err != nil {
			f.Fatalf("corpus entry %s is not one []byte or string value", p)
		}
		out = append(out, []byte(s))
	}
	return out
}
