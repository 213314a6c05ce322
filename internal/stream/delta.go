// Package stream maintains live, mutating HIN models: batched edge
// deltas merged into the raw adjacency tensor, O and R rebuilt from the
// merged adjacency by the constructors a from-scratch build runs, and a
// sealed content-hash version per applied batch in the artifact
// registry. The engine solves nothing: readers solve the version they
// read.
//
// The engine is transactional: a batch is validated completely, every
// derived structure is built off to the side, and the engine's visible
// state moves only in the final assignment — a failure (or injected
// panic) anywhere earlier leaves the previous version serving and the
// registry pointing at it. Published arrays are never mutated in
// place, so models handed out before an ingest keep serving the exact
// pre-ingest bytes (version-pinned reads).
package stream

import (
	"fmt"
	"math"
	"sort"

	"tmark/internal/hin"
	"tmark/internal/tensor"
)

// Op is the kind of one edge delta.
type Op string

const (
	// OpAdd accumulates weight onto an edge, creating it if absent —
	// exactly what appending the edge to the source graph and
	// rebuilding would compute, including float summation order.
	OpAdd Op = "add"
	// OpUpdate replaces the raw weight of an existing edge; the edge
	// must exist.
	OpUpdate Op = "update"
	// OpRemove deletes an existing edge; the edge must exist and the
	// delta must carry no weight.
	OpRemove Op = "remove"
)

// Delta is one edge mutation. From/To/Relation address the edge the
// way hin.Graph stores it; for an undirected relation the mirrored
// adjacency entry moves with it, exactly as AdjacencyTensor would
// place it.
type Delta struct {
	Op       Op      `json:"op"`
	From     int     `json:"from"`
	To       int     `json:"to"`
	Relation int     `json:"relation"`
	Weight   float64 `json:"weight,omitempty"`
}

// MaxDeltas bounds one batch; large mutations should arrive as several
// batches (each seals its own version).
const MaxDeltas = 1 << 17

// Validate checks one delta against static rules (op spelling, weight
// domain). Graph-dependent checks (index ranges, existence) happen at
// apply time.
func (d Delta) Validate() error {
	switch d.Op {
	case OpAdd, OpUpdate:
		if err := hin.ValidWeight(d.Weight); err != nil {
			return fmt.Errorf("stream: %s delta: %w", d.Op, err)
		}
	case OpRemove:
		if d.Weight != 0 {
			return fmt.Errorf("stream: remove delta carries weight %v; removals take none", d.Weight)
		}
	default:
		return fmt.Errorf("stream: unknown delta op %q", d.Op)
	}
	return nil
}

// ValidateDeltas checks a whole batch's static rules.
func ValidateDeltas(deltas []Delta) error {
	if len(deltas) == 0 {
		return fmt.Errorf("stream: empty delta batch")
	}
	if len(deltas) > MaxDeltas {
		return fmt.Errorf("stream: batch of %d deltas exceeds the %d cap", len(deltas), MaxDeltas)
	}
	for q, d := range deltas {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("delta %d: %w", q, err)
		}
	}
	return nil
}

// batchEffect is the composed, validated effect of one delta batch on
// the raw adjacency: final per-coordinate values, (k, j, i)-sorted,
// plus how many O columns (j, k) and R tubes (i, j) they lie in.
type batchEffect struct {
	kji                       []tensor.Change
	touchedCols, touchedTubes int
}

// compose folds the batch, in order, into final per-coordinate raw
// values against the current adjacency ao ((k,j,i)-ordered). Each delta
// expands to its adjacency coordinates the same way AdjacencyTensor
// does — a[to, from, k], plus the mirror for an undirected relation
// with from != to — and add composes v += w left to right, so the
// result is bitwise what a graph rebuild with the same mutations would
// produce. Any rule violation, an add that overflows the edge's weight
// included, rejects the whole batch with an ErrInvalidBatch.
func compose(g *hin.Graph, ao tensor.COO, deltas []Delta) (_ *batchEffect, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrInvalidBatch, err)
		}
	}()
	if err := ValidateDeltas(deltas); err != nil {
		return nil, err
	}
	type state struct {
		v       float64
		present bool // exists after the ops so far
		inBase  bool // existed before the batch
	}
	pending := map[[3]int32]*state{}
	lookup := func(i, j, k int32) *state {
		c := [3]int32{i, j, k}
		st, ok := pending[c]
		if !ok {
			v, present := ao.AtKJI(i, j, k)
			st = &state{v: v, present: present, inBase: present}
			pending[c] = st
		}
		return st
	}
	for q, d := range deltas {
		if d.Relation < 0 || d.Relation >= g.M() {
			return nil, fmt.Errorf("delta %d: relation %d out of range %d", q, d.Relation, g.M())
		}
		if d.From < 0 || d.From >= g.N() || d.To < 0 || d.To >= g.N() {
			return nil, fmt.Errorf("delta %d: edge (%d,%d) out of range %d", q, d.From, d.To, g.N())
		}
		coords := [][3]int32{{int32(d.To), int32(d.From), int32(d.Relation)}}
		if !g.Relations[d.Relation].Directed && d.From != d.To {
			coords = append(coords, [3]int32{int32(d.From), int32(d.To), int32(d.Relation)})
		}
		for _, c := range coords {
			st := lookup(c[0], c[1], c[2])
			switch d.Op {
			case OpAdd:
				if st.present {
					st.v += d.Weight
				} else {
					st.v = d.Weight
					st.present = true
				}
				if math.IsInf(st.v, 0) {
					return nil, fmt.Errorf("delta %d: add overflows the weight of edge (%d→%d, relation %d)", q, d.From, d.To, d.Relation)
				}
			case OpUpdate:
				if !st.present {
					return nil, fmt.Errorf("delta %d: update of absent edge (%d→%d, relation %d)", q, d.From, d.To, d.Relation)
				}
				st.v = d.Weight
			case OpRemove:
				if !st.present {
					return nil, fmt.Errorf("delta %d: remove of absent edge (%d→%d, relation %d)", q, d.From, d.To, d.Relation)
				}
				st.v, st.present = 0, false
			}
		}
	}
	eff := &batchEffect{}
	cols, tubes := map[[2]int32]bool{}, map[[2]int32]bool{}
	for c, st := range pending {
		if !st.present && !st.inBase {
			continue // created and destroyed within the batch: no effect
		}
		v := st.v
		if !st.present {
			v = 0
		}
		eff.kji = append(eff.kji, tensor.Change{I: c[0], J: c[1], K: c[2], V: v})
		cols[[2]int32{c[1], c[2]}] = true
		tubes[[2]int32{c[0], c[1]}] = true
	}
	eff.touchedCols, eff.touchedTubes = len(cols), len(tubes)
	sort.Slice(eff.kji, func(a, b int) bool {
		x, y := eff.kji[a], eff.kji[b]
		if x.K != y.K {
			return x.K < y.K
		}
		if x.J != y.J {
			return x.J < y.J
		}
		return x.I < y.I
	})
	return eff, nil
}
