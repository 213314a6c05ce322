package tensor

// Cross-process sharding entry points for the blocked contractions: the
// horizontal scale-out layer (internal/shard) runs the per-shard scatter
// phase of ApplyBatchParallel in worker processes and the reduce phase
// at the coordinator. The bitwise contract extends across the process
// boundary: shard boundaries are exactly the par.Split ranges of the
// in-process parallel path (they depend only on the tensor and the
// shard count, never on the column count b), each worker computes its
// partial serially in entry order, and the coordinator folds partials
// in ascending shard order with the same dangling-mass closed form —
// so a distributed apply at M workers is bitwise identical to
// ApplyBatchParallel on an M-worker pool, which in turn is bitwise
// independent of the column count.

import (
	"fmt"

	"tmark/internal/par"
)

// NodeShard is the shard-local slice of a NodeTransition: the entry and
// stored-column ranges shard s of `of` owns, plus the node/relation row
// ranges it sums for the dangling-mass closed form. The index slices
// keep their global meaning (they index the full n×b and m×b blocks),
// so a worker holding only its shard still consumes the full (x, z)
// slabs the coordinator ships.
type NodeShard struct {
	// N, M are the full tensor's dimensions (nodes, link types).
	N, M int
	// Shard, Of identify this shard's position.
	Shard, Of int
	// XLo/XHi and ZLo/ZHi are this shard's par.Split row ranges over
	// the x (n×b) and z (m×b) blocks for the partial column sums.
	XLo, XHi int
	ZLo, ZHi int
	// I, J, K, P are this shard's par.Split slice of the entry stream,
	// in the global (k, j, i) sort order.
	I, J, K []int32
	P       []float64
	// ColJ, ColK are this shard's par.Split slice of the stored-column
	// pair list.
	ColJ, ColK []int32
}

// Shard returns shard s of `of` of the node tensor, slicing the entry
// stream, the stored-column list and the sum row ranges at exactly the
// par.Split boundaries nodeBatchTask.RunShard uses.
func (o *NodeTransition) Shard(s, of int) NodeShard {
	sh := NodeShard{N: o.n, M: o.m, Shard: s, Of: of}
	sh.XLo, sh.XHi = par.Split(o.n, of, s)
	sh.ZLo, sh.ZHi = par.Split(o.m, of, s)
	lo, hi := par.Split(len(o.p), of, s)
	sh.I, sh.J, sh.K, sh.P = o.i[lo:hi], o.j[lo:hi], o.k[lo:hi], o.p[lo:hi]
	lo, hi = par.Split(len(o.colJ), of, s)
	sh.ColJ, sh.ColK = o.colJ[lo:hi], o.colK[lo:hi]
	return sh
}

// Validate checks a shard's structural invariants: dimensions, range
// sanity against the par.Split boundaries, equal-length entry arrays,
// in-range indices and finite weights. Decoded shards (which, unlike
// Shard's products, come from disk) must pass here before a worker
// serves them.
func (sh *NodeShard) Validate() error {
	if sh.N < 0 || sh.M < 0 || sh.Of < 1 || sh.Shard < 0 || sh.Shard >= sh.Of {
		return fmt.Errorf("tensor: node shard %d/%d over %dx%d malformed", sh.Shard, sh.Of, sh.N, sh.M)
	}
	if lo, hi := par.Split(sh.N, sh.Of, sh.Shard); lo != sh.XLo || hi != sh.XHi {
		return fmt.Errorf("tensor: node shard %d/%d x range [%d,%d), want [%d,%d)", sh.Shard, sh.Of, sh.XLo, sh.XHi, lo, hi)
	}
	if lo, hi := par.Split(sh.M, sh.Of, sh.Shard); lo != sh.ZLo || hi != sh.ZHi {
		return fmt.Errorf("tensor: node shard %d/%d z range [%d,%d), want [%d,%d)", sh.Shard, sh.Of, sh.ZLo, sh.ZHi, lo, hi)
	}
	if len(sh.I) != len(sh.J) || len(sh.I) != len(sh.K) || len(sh.I) != len(sh.P) {
		return fmt.Errorf("tensor: node shard entry arrays disagree: %d/%d/%d/%d", len(sh.I), len(sh.J), len(sh.K), len(sh.P))
	}
	if len(sh.ColJ) != len(sh.ColK) {
		return fmt.Errorf("tensor: node shard column lists disagree: %d/%d", len(sh.ColJ), len(sh.ColK))
	}
	for q := range sh.I {
		if !inRange(sh.I[q], sh.N) || !inRange(sh.J[q], sh.N) || !inRange(sh.K[q], sh.M) {
			return fmt.Errorf("tensor: node shard entry %d index out of range", q)
		}
		if !finiteNonneg(sh.P[q]) {
			return fmt.Errorf("tensor: node shard entry %d weight %v invalid", q, sh.P[q])
		}
	}
	for t := range sh.ColJ {
		if !inRange(sh.ColJ[t], sh.N) || !inRange(sh.ColK[t], sh.M) {
			return fmt.Errorf("tensor: node shard stored column %d out of range", t)
		}
	}
	return nil
}

// ApplyPartial runs this shard's scatter phase: the per-shard body of
// nodeBatchTask.RunShard, serially. part (N×b, fully overwritten) takes
// the shard's scattered contributions; sumX, sumZ and mass (each b,
// fully overwritten) take the shard's partial column sums and stored
// mass. x and z are the full n×b / m×b blocks. The worker must not
// sub-parallelise this call — serial entry order is what keeps the
// cross-process reduce bitwise identical to the in-process one.
func (sh *NodeShard) ApplyPartial(x, z, part []float64, b int, sumX, sumZ, mass []float64, noASM bool) {
	n := sh.N
	part = part[:n*b]
	for i := range part {
		part[i] = 0
	}
	sumX, sumZ, mass = sumX[:b], sumZ[:b], mass[:b]
	for c := 0; c < b; c++ {
		sumX[c], sumZ[c], mass[c] = 0, 0, 0
	}
	for i := sh.XLo; i < sh.XHi; i++ {
		row := x[i*b : i*b+b]
		for c, v := range row {
			sumX[c] += v
		}
	}
	for k := sh.ZLo; k < sh.ZHi; k++ {
		row := z[k*b : k*b+b]
		for c, v := range row {
			sumZ[c] += v
		}
	}
	asm := useBatchASM && !noASM
	pairMassBatch(x, z, sh.ColJ, sh.ColK, b, 0, len(sh.ColJ), mass, asm)
	cooScatterBatch(part, x, z, sh.I, sh.J, sh.K, sh.P, b, 0, len(sh.P), asm)
}

// RelationShard is the shard-local slice of a RelationTransition; see
// NodeShard. XLo/XHi is the row range over the x (n×b) block for the
// partial mode-1 sum.
type RelationShard struct {
	N, M      int
	Shard, Of int
	XLo, XHi  int
	// I, J, K, P are this shard's par.Split slice of the entry stream,
	// in the global (j, i, k) sort order.
	I, J, K []int32
	P       []float64
	// TubeI, TubeJ are this shard's par.Split slice of the stored-tube
	// pair list.
	TubeI, TubeJ []int32
}

// Shard returns shard s of `of` of the relation tensor at exactly the
// par.Split boundaries relationBatchTask.RunShard uses. The parallel
// path never fuses mass and scatter, so no tube offsets are needed.
func (r *RelationTransition) Shard(s, of int) RelationShard {
	sh := RelationShard{N: r.n, M: r.m, Shard: s, Of: of}
	sh.XLo, sh.XHi = par.Split(r.n, of, s)
	lo, hi := par.Split(len(r.p), of, s)
	sh.I, sh.J, sh.K, sh.P = r.i[lo:hi], r.j[lo:hi], r.k[lo:hi], r.p[lo:hi]
	lo, hi = par.Split(len(r.tubeI), of, s)
	sh.TubeI, sh.TubeJ = r.tubeI[lo:hi], r.tubeJ[lo:hi]
	return sh
}

// Validate checks a decoded relation shard; see NodeShard.Validate.
func (sh *RelationShard) Validate() error {
	if sh.N < 0 || sh.M < 0 || sh.Of < 1 || sh.Shard < 0 || sh.Shard >= sh.Of {
		return fmt.Errorf("tensor: relation shard %d/%d over %dx%d malformed", sh.Shard, sh.Of, sh.N, sh.M)
	}
	if lo, hi := par.Split(sh.N, sh.Of, sh.Shard); lo != sh.XLo || hi != sh.XHi {
		return fmt.Errorf("tensor: relation shard %d/%d x range [%d,%d), want [%d,%d)", sh.Shard, sh.Of, sh.XLo, sh.XHi, lo, hi)
	}
	if len(sh.I) != len(sh.J) || len(sh.I) != len(sh.K) || len(sh.I) != len(sh.P) {
		return fmt.Errorf("tensor: relation shard entry arrays disagree: %d/%d/%d/%d", len(sh.I), len(sh.J), len(sh.K), len(sh.P))
	}
	if len(sh.TubeI) != len(sh.TubeJ) {
		return fmt.Errorf("tensor: relation shard tube lists disagree: %d/%d", len(sh.TubeI), len(sh.TubeJ))
	}
	for q := range sh.I {
		if !inRange(sh.I[q], sh.N) || !inRange(sh.J[q], sh.N) || !inRange(sh.K[q], sh.M) {
			return fmt.Errorf("tensor: relation shard entry %d index out of range", q)
		}
		if !finiteNonneg(sh.P[q]) {
			return fmt.Errorf("tensor: relation shard entry %d weight %v invalid", q, sh.P[q])
		}
	}
	for t := range sh.TubeI {
		if !inRange(sh.TubeI[t], sh.N) || !inRange(sh.TubeJ[t], sh.N) {
			return fmt.Errorf("tensor: relation shard stored tube %d out of range", t)
		}
	}
	return nil
}

// ApplyPartial runs this shard's scatter phase: the serial body of
// relationBatchTask.RunShard. part is M×b (fully overwritten); sumI and
// mass are b each; x is the full n×b block.
func (sh *RelationShard) ApplyPartial(x, part []float64, b int, sumI, mass []float64, noASM bool) {
	m := sh.M
	part = part[:m*b]
	for i := range part {
		part[i] = 0
	}
	sumI, mass = sumI[:b], mass[:b]
	for c := 0; c < b; c++ {
		sumI[c], mass[c] = 0, 0
	}
	for i := sh.XLo; i < sh.XHi; i++ {
		row := x[i*b : i*b+b]
		for c, v := range row {
			sumI[c] += v
		}
	}
	asm := useBatchASM && !noASM
	pairMassBatch(x, x, sh.TubeI, sh.TubeJ, b, 0, len(sh.TubeI), mass, asm)
	cooScatterBatch(part, x, x, sh.K, sh.I, sh.J, sh.P, b, 0, len(sh.P), asm)
}

// ReduceNodePartials folds the per-shard partials of a distributed node
// contraction into dst (n×b), mirroring ApplyBatchParallel's reduce:
// per column, the partial sums fold in ascending shard order into the
// dangling-mass closed form (same `> 1e-15` guard), then every cell
// accumulates u[c] first and the shard partials in ascending order.
// parts, sumX, sumZ and mass are indexed by shard; u is b-column
// scratch. The result is bitwise identical to ApplyBatchParallel on a
// pool of len(parts) workers.
func ReduceNodePartials(dst, u []float64, n, b int, parts, sumX, sumZ, mass [][]float64) {
	shards := len(parts)
	u = u[:b]
	for c := 0; c < b; c++ {
		var sx, sz, stored float64
		for w := 0; w < shards; w++ {
			sx += sumX[w][c]
			sz += sumZ[w][c]
			stored += mass[w][c]
		}
		if dangling := sx*sz - stored; dangling > 1e-15 && n > 0 {
			u[c] = dangling / float64(n)
		} else {
			u[c] = 0
		}
	}
	dst = dst[:n*b]
	for i := 0; i < n; i++ {
		row := i * b
		for c := 0; c < b; c++ {
			acc := u[c]
			for w := 0; w < shards; w++ {
				acc += parts[w][row+c]
			}
			dst[row+c] = acc
		}
	}
}

// ReduceRelationPartials folds the per-shard partials of a distributed
// relation contraction into dst (m×b), mirroring the serial reduce in
// RelationTransition.ApplyBatchParallel.
func ReduceRelationPartials(dst, u []float64, m, b int, parts, sumI, mass [][]float64) {
	shards := len(parts)
	u = u[:b]
	for c := 0; c < b; c++ {
		var si, stored float64
		for w := 0; w < shards; w++ {
			si += sumI[w][c]
			stored += mass[w][c]
		}
		if dangling := si*si - stored; dangling > 1e-15 && m > 0 {
			u[c] = dangling / float64(m)
		} else {
			u[c] = 0
		}
	}
	dst = dst[:m*b]
	for k := 0; k < m; k++ {
		row := k * b
		for c := 0; c < b; c++ {
			acc := u[c]
			for w := 0; w < shards; w++ {
				acc += parts[w][row+c]
			}
			dst[row+c] = acc
		}
	}
}

func inRange(i int32, n int) bool { return i >= 0 && int(i) < n }
