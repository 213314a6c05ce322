package dataset

// Fuzzing for the COO ingest path: arbitrary bytes must either produce
// a validating graph within the declared dims or an error — never a
// panic (the hin builder panics on out-of-range writes, so every index
// must be checked before it reaches the builder). Additional seed
// inputs live in testdata/fuzz/FuzzReadCOO.

import (
	"math"
	"strings"
	"testing"
)

func FuzzReadCOO(f *testing.F) {
	f.Add(cooSample)
	f.Add("coo 2 1 1\ne 0 0 1\n")
	f.Add("coo 2 1 1\ne 0 0 1 NaN\n")
	f.Add("coo 2 1 1\ne 0 0 1 +Inf\n")
	f.Add("coo 2 1 1\ne 0 0 1 1e999\n")
	f.Add("coo 2 1 1\ne 0 0 1\ne 0 0 1\n")
	f.Add("coo 2 1 1\ne 0 5 1\n")
	f.Add("coo 2 1 1\ne 0 -1 1\n")
	f.Add("coo 99999999999999999999 1 1\n")
	f.Add("coo 3 2 20000 ")
	f.Add("coo 1048576 1 1\ne 0 0 1\n")
	f.Add("coo 2 1 1 # trailing comment\ne 0 0 1 # another\n")
	f.Add("coo\t2 1 1\r\ne 0 1 0\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadCOO panicked: %v (input %q)", r, data)
			}
		}()
		g, err := ReadCOO(strings.NewReader(data))
		if err != nil {
			return
		}
		if vErr := g.Validate(); vErr != nil {
			t.Fatalf("ReadCOO returned invalid graph: %v", vErr)
		}
		for k := range g.Relations {
			for _, e := range g.Relations[k].Edges {
				if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight <= 0 {
					t.Fatalf("accepted graph carries weight %v", e.Weight)
				}
				if e.From < 0 || e.From >= g.N() || e.To < 0 || e.To >= g.N() {
					t.Fatalf("accepted graph carries edge (%d, %d) outside %d nodes", e.From, e.To, g.N())
				}
			}
		}
	})
}
