package tensor

// The single-vector sharded contractions: the independent reference the
// blocked kernels are checked against column by column (see
// TestApplyBatchParallelMatchesSingleColumns). The COO entry arrays are
// already sorted, so a shard is just a contiguous index range; each
// shard contracts into a per-worker output buffer and a strided
// reduction folds the buffers into dst. Shard boundaries and the
// reduction order depend only on the shard count, so the result is
// bit-for-bit deterministic for a fixed scratch size.

import (
	"fmt"
	"sync"

	"tmark/internal/obs"
	"tmark/internal/par"
)

// NodeApplyScratch holds the per-worker buffers of the sharded
// NodeTransition contraction. Build one per solver run with
// NewNodeApplyScratch and reuse it across iterations; steady-state
// ApplyParallel calls then allocate nothing. A scratch must not be shared
// by concurrent calls.
type NodeApplyScratch struct {
	shards   int
	partials []float64 // shards × n, worker-major: shard s owns [s·n, (s+1)·n)
	sumX     []float64 // per-shard partial sums of x
	sumZ     []float64 // per-shard partial sums of z
	mass     []float64 // per-shard stored-column mass: the sum of its partial
	task     nodeApplyTask
	wg       sync.WaitGroup

	// Probe, when non-nil, counts ApplyParallel calls and the stored
	// entries they contract (the kernel's work items). The nil default
	// costs one branch per call.
	Probe *obs.Probe
}

// NewNodeApplyScratch sizes scratch buffers for o with the given shard
// count (typically the worker-pool size). shards < 1 is treated as 1.
func NewNodeApplyScratch(o *NodeTransition, shards int) *NodeApplyScratch {
	if shards < 1 {
		shards = 1
	}
	s := &NodeApplyScratch{
		shards:   shards,
		partials: make([]float64, shards*o.n),
		sumX:     make([]float64, shards),
		sumZ:     make([]float64, shards),
		mass:     make([]float64, shards),
	}
	s.task.o = o
	s.task.s = s
	return s
}

// nodeApplyTask is the par.Task of one ApplyParallel call. It lives inside
// the scratch so dispatch never allocates.
type nodeApplyTask struct {
	o      *NodeTransition
	s      *NodeApplyScratch
	x, z   []float64
	dst    []float64
	u      float64 // per-node dangling addend, set between the two phases
	reduce bool    // false: scatter phase, true: reduction phase
}

func (t *nodeApplyTask) RunShard(shard, shards int) {
	o, s := t.o, t.s
	n := o.n
	if t.reduce {
		// Strided reduction: this shard owns a contiguous slice of dst and
		// folds every worker's partial for it, always in worker order.
		lo, hi := par.Split(n, shards, shard)
		u := t.u
		for i := lo; i < hi; i++ {
			acc := u
			for w := 0; w < shards; w++ {
				acc += s.partials[w*n+i]
			}
			t.dst[i] = acc
		}
		return
	}
	part := s.partials[shard*n : (shard+1)*n]
	for i := range part {
		part[i] = 0
	}
	x, z := t.x, t.z
	var sx, sz float64
	lo, hi := par.Split(len(x), shards, shard)
	for _, v := range x[lo:hi] {
		sx += v
	}
	lo, hi = par.Split(len(z), shards, shard)
	for _, v := range z[lo:hi] {
		sz += v
	}
	s.sumX[shard], s.sumZ[shard] = sx, sz
	lo, hi = par.Split(len(o.p), shards, shard)
	for q := lo; q < hi; q++ {
		part[o.i[q]] += o.p[q] * x[o.j[q]] * z[o.k[q]]
	}
	var mass float64
	for _, v := range part {
		mass += v
	}
	s.mass[shard] = mass
}

// ApplyParallel computes dst = O ×̄₁ x ×̄₃ z exactly like Apply, but
// contracts the entry shards on the pool's workers into the per-worker
// buffers of s, then reduces. The result is deterministic for a fixed
// scratch shard count and differs from the serial Apply by float rounding
// only (the summation order changes). A nil/serial pool or single-shard
// scratch falls back to the serial path.
func (o *NodeTransition) ApplyParallel(p *par.Pool, s *NodeApplyScratch, x, z, dst []float64) {
	if p.Serial() || s == nil || s.shards <= 1 {
		o.Apply(x, z, dst)
		return
	}
	if len(x) != o.n || len(dst) != o.n {
		panic(fmt.Sprintf("tensor: NodeTransition.ApplyParallel x/dst length %d/%d, want %d", len(x), len(dst), o.n))
	}
	if len(z) != o.m {
		panic(fmt.Sprintf("tensor: NodeTransition.ApplyParallel z length %d, want %d", len(z), o.m))
	}
	s.Probe.Observe(len(o.p))
	t := &s.task
	t.x, t.z, t.dst = x, z, dst
	t.reduce, t.u = false, 0
	p.Run(s.shards, t, &s.wg)
	var sumX, sumZ, stored float64
	for w := 0; w < s.shards; w++ {
		sumX += s.sumX[w]
		sumZ += s.sumZ[w]
		stored += s.mass[w]
	}
	t.u = danglingAddend(sumX, sumZ, stored, o.n, o.DanglingColumns())
	t.reduce = true
	p.Run(s.shards, t, &s.wg)
	t.x, t.z, t.dst = nil, nil, nil
}

// RelationApplyScratch holds the per-worker buffers of the sharded
// RelationTransition contraction; see NodeApplyScratch for the contract.
// The output dimension m (relation types) is small, so the reduction runs
// serially in the caller.
type RelationApplyScratch struct {
	shards   int
	partials []float64 // shards × m, worker-major
	sumI     []float64
	sumJ     []float64
	mass     []float64
	task     relationApplyTask
	wg       sync.WaitGroup

	// Probe, when non-nil, counts ApplyPairParallel calls and the stored
	// entries they contract; nil disables observation.
	Probe *obs.Probe
}

// NewRelationApplyScratch sizes scratch buffers for r with the given shard
// count. shards < 1 is treated as 1.
func NewRelationApplyScratch(r *RelationTransition, shards int) *RelationApplyScratch {
	if shards < 1 {
		shards = 1
	}
	s := &RelationApplyScratch{
		shards:   shards,
		partials: make([]float64, shards*r.m),
		sumI:     make([]float64, shards),
		sumJ:     make([]float64, shards),
		mass:     make([]float64, shards),
	}
	s.task.r = r
	s.task.s = s
	return s
}

type relationApplyTask struct {
	r      *RelationTransition
	s      *RelationApplyScratch
	xi, xj []float64
}

func (t *relationApplyTask) RunShard(shard, shards int) {
	r, s := t.r, t.s
	m := r.m
	part := s.partials[shard*m : (shard+1)*m]
	for k := range part {
		part[k] = 0
	}
	xi, xj := t.xi, t.xj
	var si, sj float64
	lo, hi := par.Split(len(xi), shards, shard)
	for _, v := range xi[lo:hi] {
		si += v
	}
	lo, hi = par.Split(len(xj), shards, shard)
	for _, v := range xj[lo:hi] {
		sj += v
	}
	s.sumI[shard], s.sumJ[shard] = si, sj
	lo, hi = par.Split(len(r.p), shards, shard)
	for q := lo; q < hi; q++ {
		part[r.k[q]] += r.p[q] * xi[r.i[q]] * xj[r.j[q]]
	}
	var mass float64
	for _, v := range part {
		mass += v
	}
	s.mass[shard] = mass
}

// ApplyPairParallel computes dst[k] = Σ_i Σ_j r[i,j,k]·xi[i]·xj[j] like
// ApplyPair, sharding the stored entries across the pool. Deterministic
// for a fixed scratch shard count; steady-state calls allocate nothing.
func (r *RelationTransition) ApplyPairParallel(p *par.Pool, s *RelationApplyScratch, xi, xj, dst []float64) {
	if p.Serial() || s == nil || s.shards <= 1 {
		r.ApplyPair(xi, xj, dst)
		return
	}
	if len(xi) != r.n || len(xj) != r.n {
		panic(fmt.Sprintf("tensor: RelationTransition.ApplyPairParallel x lengths %d/%d, want %d", len(xi), len(xj), r.n))
	}
	if len(dst) != r.m {
		panic(fmt.Sprintf("tensor: RelationTransition.ApplyPairParallel dst length %d, want %d", len(dst), r.m))
	}
	s.Probe.Observe(len(r.p))
	t := &s.task
	t.xi, t.xj = xi, xj
	p.Run(s.shards, t, &s.wg)
	var sumI, sumJ, stored float64
	for w := 0; w < s.shards; w++ {
		sumI += s.sumI[w]
		sumJ += s.sumJ[w]
		stored += s.mass[w]
	}
	u := danglingAddend(sumI, sumJ, stored, r.m, r.DanglingTubes())
	m := r.m
	for k := 0; k < m; k++ {
		acc := u
		for w := 0; w < s.shards; w++ {
			acc += s.partials[w*m+k]
		}
		dst[k] = acc
	}
	t.xi, t.xj = nil, nil
}

// ApplyParallel is the xi == xj case of ApplyPairParallel, mirroring Apply.
func (r *RelationTransition) ApplyParallel(p *par.Pool, s *RelationApplyScratch, x, dst []float64) {
	r.ApplyPairParallel(p, s, x, x, dst)
}
