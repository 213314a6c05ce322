package tmark

// The substrate door for the artifact store (internal/artifact): a
// built Model is, beyond its hyper-parameters, exactly the normalised
// transition tensors O and R plus the optional feature channel W — all
// immutable once constructed. Substrate exposes those parts for
// serialisation and Assemble rebuilds a Model around externally
// constructed parts (typically views into a decoded artifact's bytes)
// without paying the normalisation cost New incurs: no adjacency-tensor
// build, no cosine matrix, no counting sorts.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"tmark/internal/hin"
	"tmark/internal/sparse"
	"tmark/internal/tensor"
	"tmark/internal/vec"
)

// HashConfig returns the FNV-1a identity of the arithmetic-relevant
// Config fields, which artifacts store and verify; it is exposed at
// package level so the artifact codec can stamp and verify it without a
// built Model. Workers is excluded: the worker count is a deployment
// knob, not part of the problem.
func HashConfig(c Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(math.Float64bits(c.Alpha))
	put(math.Float64bits(c.Gamma))
	put(math.Float64bits(c.Lambda))
	put(math.Float64bits(c.Epsilon))
	put(uint64(c.MaxIterations))
	if c.ICAUpdate {
		put(1)
	} else {
		put(0)
	}
	put(uint64(c.FeatureTopK))
	return h.Sum64()
}

// Substrate is the compiled, immutable heart of a Model: what an
// artifact stores and what Assemble consumes. Exactly one of WDense and
// WCSR is non-nil when the config's feature channel is active
// (Gamma > 0); both are nil otherwise.
type Substrate struct {
	O           *tensor.NodeTransition
	R           *tensor.RelationTransition
	WDense      *vec.Matrix
	WCSR        *sparse.Matrix
	Irreducible bool
}

// Substrate exposes the model's compiled parts for serialisation. The
// returned tensors and matrices alias the model's own storage and must
// not be mutated.
func (m *Model) Substrate() Substrate {
	s := Substrate{O: m.o, R: m.r, Irreducible: m.irreducible}
	switch w := m.w.(type) {
	case *vec.Matrix:
		s.WDense = w
	case *sparse.Matrix:
		s.WCSR = w
	case nil:
	default:
		// matvec has exactly the two implementations above; a third would
		// need artifact codec support before it can be serialised.
		panic(fmt.Sprintf("tmark: unknown feature-channel type %T", m.w))
	}
	return s
}

// Assemble builds a Model directly from compiled parts, skipping the
// normalisation work New performs. The graph supplies dimensions, label
// seeds and display names; its Relations need no edges (an artifact
// does not store them), so g.Validate() is deliberately not required —
// only the structural agreement between graph and substrate is checked.
// The substrate parts are aliased, not copied: they must stay immutable
// for the model's lifetime, exactly as New's own products do.
func Assemble(g *hin.Graph, cfg Config, s Substrate) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g == nil || s.O == nil || s.R == nil {
		return nil, errors.New("tmark: Assemble needs a graph and both transition tensors")
	}
	if g.Q() == 0 {
		return nil, errors.New("tmark: graph has no classes")
	}
	anyLabel := false
	for i := 0; i < g.N(); i++ {
		if g.Labeled(i) {
			anyLabel = true
			break
		}
	}
	if !anyLabel {
		return nil, errors.New("tmark: graph has no labelled nodes")
	}
	if s.O.N() != g.N() || s.O.M() != g.M() {
		return nil, fmt.Errorf("tmark: O is %dx%d, graph %dx%d", s.O.N(), s.O.M(), g.N(), g.M())
	}
	if s.R.N() != g.N() || s.R.M() != g.M() {
		return nil, fmt.Errorf("tmark: R is %dx%d, graph %dx%d", s.R.N(), s.R.M(), g.N(), g.M())
	}
	if s.WDense != nil && s.WCSR != nil {
		return nil, errors.New("tmark: both dense and CSR feature channels supplied")
	}
	m := &Model{graph: g, cfg: cfg, o: s.O, r: s.R, irreducible: s.Irreducible}
	if cfg.Gamma > 0 {
		switch {
		case s.WDense != nil:
			if s.WDense.Rows != g.N() || s.WDense.Cols != g.N() {
				return nil, fmt.Errorf("tmark: dense W is %dx%d, want %dx%d", s.WDense.Rows, s.WDense.Cols, g.N(), g.N())
			}
			m.w = s.WDense
		case s.WCSR != nil:
			rows, cols := s.WCSR.Dims()
			if rows != g.N() || cols != g.N() {
				return nil, fmt.Errorf("tmark: CSR W is %dx%d, want %dx%d", rows, cols, g.N(), g.N())
			}
			m.w = s.WCSR
		default:
			return nil, fmt.Errorf("tmark: Gamma %v needs a feature channel but the substrate has none", cfg.Gamma)
		}
	}
	return m, nil
}
