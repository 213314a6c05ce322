package tmark

// The per-query (column) solve API of the serving layer. A ColumnQuery is
// one independent single-class solve: a restart vector (usually uniform
// over a caller-chosen seed set) iterated through eq. (10) and eq. (8)
// until convergence. Queries against the same model share O, R and W, so
// SolveColumns hands them to the lockstep engine as one block — every
// tensor entry is streamed once per iteration and applied to all query
// columns, exactly like the multi-class Run does for the graph's own
// classes — and a column's answer does not depend on the batch it rides
// in. Unlike the multi-class Run, queries are never coupled by the
// cross-class ICA reseed — eq. (12) is a statement about one prediction
// matrix over one label set, and independent queries share neither. A
// query may instead opt into a per-query self-training reseed
// (ColumnQuery.ICA) whose "labelled" set is the query's own seed set.
//
// Each column carries an optional context: the engine checks it every
// iteration and retires a cancelled column mid-batch, so one impatient
// caller never stops the rest of the batch. The run context still
// cancels every column at once. A fast-tier column's context is checked
// once, before the fast block sweeps (see solveFast).

import (
	"context"
	"fmt"
	"math"

	"tmark/internal/vec"
)

// ColumnQuery describes one independent single-class solve against the
// model. Exactly one of Seeds and Restart must be set: Seeds lists the
// node indices of the query's restart set (the restart vector is uniform
// over them, like eq. (11)); Restart supplies the full-length vector
// directly (it is copied and L1-normalised; entries must be finite and
// non-negative with positive total mass).
type ColumnQuery struct {
	// Seeds are the node indices of the restart set; duplicates are
	// tolerated and count once.
	Seeds []int
	// Restart is an explicit restart vector of length n, overriding Seeds.
	Restart vec.Vector
	// ICA enables the per-query self-training reseed: after each
	// iteration (from t = 3, like Algorithm 1), non-seed nodes whose
	// score exceeds Lambda times the best non-seed score join the restart
	// set. The query's own seed set plays the role of the labelled set.
	ICA bool
	// Ctx, when non-nil, cancels this column alone: the engine
	// checks it every iteration and retires the column mid-batch with
	// ColumnResult.Stopped set, leaving the other columns untouched. A
	// fast-tier column's context is checked once, before the batch's fast
	// columns start sweeping: done then, the column keeps its start state
	// (X = the restart vector, uniform Z); done later, it is answered in
	// full.
	Ctx context.Context
	// Quality selects this query's solve tier, overriding the run
	// options: exact iteration, the extrapolated power method (identical
	// answers, fewer committed iterations), or the linearized fast tier
	// (approximate, one sparse solve). The zero value inherits the run's
	// WithAcceleration / WithApproximate settings. Tiers mix freely
	// within one SolveColumns batch: the fast queries sweep the collapsed
	// linear system together as their own block, while the rest advance
	// through the lockstep block.
	Quality Quality
}

// ColumnResult is the stationary solution of one query column. X scores
// the nodes and Z ranks the link types for the query's class, exactly
// like a ClassResult.
type ColumnResult struct {
	X vec.Vector // stationary node distribution x̄ (length n)
	Z vec.Vector // stationary relation distribution z̄ (length m)
	// Restart is the final restart vector — the seeds plus any pseudo-
	// seeds a per-query ICA reseed accepted.
	Restart    vec.Vector
	Seeds      int // restart-set size of the query
	Iterations int
	Converged  bool
	Trace      []float64 // ρ_t after each iteration
	// Stopped is nil when the column converged or hit the iteration cap,
	// and the context error when the column was cancelled (by its own
	// Ctx or the run context). A stopped column holds the state of the
	// last completed iteration, which remains a usable partial solution.
	Stopped error
}

// columnState is one validated column of the engine: the restart
// vector, the per-node roles of its reseed (nil when it never reseeds),
// the column context, the resolved solve tier and the start state.
type columnState struct {
	l       vec.Vector
	label   []uint8 // nodeSeed / nodeFree / nodeExcluded per node
	ctx     context.Context
	seeds   int
	quality Quality // resolved: never QualityDefault once solving starts

	// warmX/warmZ replace the cold start (l, uniform z) when non-nil
	// (both or neither); only RunWarmContext's class columns set them.
	warmX, warmZ vec.Vector
}

// buildColumnState validates one query against the model's dimensions
// and materialises its restart vector. The seed path performs exactly
// the arithmetic of seedVector (ones, then one reciprocal scale), so a
// query whose seed set equals class c's labelled set reproduces class
// c's restart vector bitwise.
func (m *Model) buildColumnState(q ColumnQuery) (columnState, error) {
	n := m.graph.N()
	cs := columnState{ctx: q.Ctx}
	switch {
	case q.Restart != nil:
		if len(q.Restart) != n {
			return cs, fmt.Errorf("tmark: query restart vector length %d, want %d", len(q.Restart), n)
		}
		l := vec.New(n)
		for i, v := range q.Restart {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return cs, fmt.Errorf("tmark: query restart[%d] = %v must be finite and non-negative", i, v)
			}
			if v > 0 {
				cs.seeds++
			}
			l[i] = v
		}
		if !vec.Normalize1(l) {
			return cs, fmt.Errorf("tmark: query restart vector has no mass")
		}
		cs.l = l
	case len(q.Seeds) > 0:
		l := vec.New(n)
		for _, s := range q.Seeds {
			if s < 0 || s >= n {
				return cs, fmt.Errorf("tmark: query seed %d out of range %d", s, n)
			}
			if l[s] == 0 {
				cs.seeds++
			}
			l[s] = 1
		}
		vec.Scale(1/float64(cs.seeds), l)
		cs.l = l
	default:
		return cs, fmt.Errorf("tmark: query needs seeds or a restart vector")
	}
	if q.ICA {
		// The query's own seed set plays the labelled set: seeds stay,
		// every other node is free to join.
		cs.label = make([]uint8, n)
		for i, v := range cs.l {
			if v > 0 {
				cs.label[i] = nodeSeed
			}
		}
	}
	return cs, nil
}

// columnErr returns the first pending cancellation of the run context or
// the column's own context.
func columnErr(runCtx, colCtx context.Context) error {
	if err := runCtx.Err(); err != nil {
		return err
	}
	if colCtx != nil {
		if err := colCtx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// SolveColumn solves one query: SolveColumns with a batch of one, so the
// answer is bitwise the query's answer inside any SolveColumns batch, on
// every tier. A nil ctx is treated as context.Background().
func (m *Model) SolveColumn(ctx context.Context, q ColumnQuery, opts ...RunOption) (ColumnResult, error) {
	out, err := m.SolveColumns(ctx, []ColumnQuery{q}, opts...)
	if err != nil {
		return ColumnResult{}, err
	}
	return out[0], nil
}

// SolveColumns solves the queries together in one lockstep engine block:
// one n×q node block and one m×q link block advance per iteration, so
// every tensor entry and CSR row is streamed once and applied to all
// active query columns. Columns retire mid-batch when they converge,
// fault, or when their own context is cancelled; the run context
// cancels every remaining column at once. Fast-tier queries sweep the
// collapsed linear system as a block of their own and never enter the
// lockstep block. Per column the result is bitwise independent of the
// batch and of the worker count. Query validation errors fail the whole
// call before any solving happens. Under WithStats the RunStats holds
// one ClassStats per query, its Class the query's index.
func (m *Model) SolveColumns(ctx context.Context, queries []ColumnQuery, opts ...RunOption) ([]ColumnResult, error) {
	ctx = orBackground(ctx)
	if len(queries) == 0 {
		return nil, nil
	}
	ro := resolveOptions(opts)
	cols := make([]engineCol, len(queries))
	var fast []columnState
	var fastAt []int // fast[k] is column fastAt[k]
	for i, q := range queries {
		cs, err := m.buildColumnState(q)
		if err != nil {
			return nil, fmt.Errorf("tmark: column %d: %w", i, err)
		}
		cs.quality = q.Quality.resolve(ro)
		cols[i].columnState = cs
		if cs.quality == QualityFast {
			fast = append(fast, cs)
			fastAt = append(fastAt, i)
		}
	}
	rs := m.newRunScratch(ro, len(queries))
	defer rs.close()
	// Fast-tier queries never enter the iterative block: they sweep the
	// shared collapsed system together, and the engine takes each
	// answered column as already retired.
	for k, r := range m.solveFast(ctx, fast, rs) {
		cols[fastAt[k]].res = r
	}
	m.newEngine(rs, cols).run(ctx)
	// Column solves are the serving path, so the registry counters must
	// see their extrapolation activity just like finishRun publishes a
	// class run's.
	publishAccel(&rs.accel)
	out := make([]ColumnResult, len(cols))
	for i := range cols {
		out[i] = cols[i].res
	}
	rs.finishStats(len(out), func(i int) ClassStats {
		r := &out[i]
		return columnStats(i, r.Iterations, r.Converged, r.Trace)
	})
	return out, nil
}
