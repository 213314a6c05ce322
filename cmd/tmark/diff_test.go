package main

// Golden test for the `tmark diff` text format: seal two model versions
// through the streaming engine — the second one edge away from the
// first, chosen so the mutation flips a node — and pin Render's exact
// output. Regenerate with:
//
//	go test ./cmd/tmark/ -run TestDiffGolden -update

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tmark/internal/artifact"
	"tmark/internal/hin"
	"tmark/internal/stream"
	itmark "tmark/internal/tmark"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/diff.golden")

// diffGraph is a two-community graph with one boundary node (b0) held
// in the theory camp by a single weak tie; the test's delta adds a
// heavy systems-side edge that flips it.
func diffGraph() *hin.Graph {
	g := hin.New("theory", "systems")
	for i := 0; i < 4; i++ {
		g.AddNode(fmt.Sprintf("t%d", i), nil)
	}
	g.AddNode("b0", nil) // node 4: the boundary
	for i := 0; i < 4; i++ {
		g.AddNode(fmt.Sprintf("s%d", i), nil)
	}
	g.SetLabels(0, 0)
	g.SetLabels(1, 0)
	g.SetLabels(5, 1)
	g.SetLabels(6, 1)
	co := g.AddRelation("coauthor", false)
	ci := g.AddRelation("cites", true)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {5, 6}, {5, 7}, {6, 8}, {7, 8}} {
		g.AddWeightedEdge(co, e[0], e[1], 1)
	}
	g.AddWeightedEdge(co, 2, 4, 0.5) // the weak tie holding b0
	for _, e := range [][2]int{{1, 0}, {3, 0}, {7, 5}, {8, 6}, {4, 2}} {
		g.AddWeightedEdge(ci, e[0], e[1], 1)
	}
	// venue sits just below cites in every class's base ranking, so a
	// systems-side venue delta can overtake it (the golden rank shift).
	ve := g.AddRelation("venue", false)
	g.AddWeightedEdge(ve, 0, 3, 0.8)
	return g
}

func TestDiffGolden(t *testing.T) {
	reg, err := artifact.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	cfg := itmark.DefaultConfig()
	cfg.Workers = 1
	cfg.Gamma = 0 // no features on the fixture graph
	cfg.Epsilon = 1e-10
	eng, err := stream.NewEngine("toy", diffGraph(), cfg, reg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Apply(context.Background(), []stream.Delta{
		{Op: stream.OpAdd, From: 4, To: 5, Relation: 0, Weight: 4},
		{Op: stream.OpAdd, From: 5, To: 6, Relation: 2, Weight: 10},
	})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	refA := "sha256:" + res.OldHash
	refB := "toy@sha256:" + res.NewHash
	d, err := diffRefs(reg, refA, refB)
	if err != nil {
		t.Fatalf("diffRefs: %v", err)
	}
	if d.A != refA || d.B != refB {
		t.Fatalf("diff ids %q %q, want %q %q", d.A, d.B, refA, refB)
	}
	if len(d.Flips) == 0 {
		t.Fatalf("the heavy cross-community edge produced no flip")
	}
	// The golden pins the format and the diff content, not the content
	// hashes: those change whenever the canonical encoding does, which
	// is a separate contract with its own tests.
	d.A, d.B = "before", "after"
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	golden := filepath.Join("testdata", "diff.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run with -update to create): %v", golden, err)
	}
	if buf.String() != string(want) {
		t.Fatalf("diff output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
	}
}

func TestLoadDeltas(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json", `[{"op":"add","from":0,"to":1,"relation":0,"weight":1}]`)
	batch, err := loadDeltas(good)
	if err != nil {
		t.Fatalf("loadDeltas(good): %v", err)
	}
	if len(batch) != 1 || batch[0].Op != stream.OpAdd {
		t.Fatalf("loadDeltas(good) = %+v", batch)
	}
	for name, body := range map[string]string{
		"empty.json":    `[]`,
		"unknown.json":  `[{"op":"add","from":0,"to":1,"relation":0,"weight":1,"extra":true}]`,
		"trailing.json": `[{"op":"add","from":0,"to":1,"relation":0,"weight":1}] []`,
		"badop.json":    `[{"op":"set","from":0,"to":1,"relation":0,"weight":1}]`,
		"object.json":   `{"op":"add"}`,
	} {
		if _, err := loadDeltas(write(name, body)); err == nil {
			t.Errorf("loadDeltas(%s) accepted invalid input", name)
		}
	}
	if _, err := loadDeltas(filepath.Join(dir, "absent.json")); err == nil {
		t.Errorf("loadDeltas accepted a missing file")
	}
}
