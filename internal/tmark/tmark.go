// Package tmark implements the paper's contribution: the Tensor-based
// Markov chain (T-Mark) algorithm for collective classification and link
// ranking in heterogeneous information networks.
//
// For every class c the algorithm iterates the coupled tensor equations
//
//	x_t = (1−α−β)·O ×̄₁ x_{t−1} ×̄₃ z_{t−1} + β·W·x_{t−1} + α·l   (eq. 10)
//	z_t = R ×̄₁ x_t ×̄₂ x_t                                        (eq. 8)
//
// with β = γ·(1−α), until ρ_t = ‖x_t−x_{t−1}‖₁ + ‖z_t−z_{t−1}‖₁ < ε.
// The stationary x̄ scores nodes for class c; the stationary z̄ ranks link
// types by their relevance to class c. The ICA-style extension (Algorithm 1
// line 4) re-seeds the restart vector l after each iteration with the
// currently most confident nodes (eq. 12); disabling it recovers the
// TensorRrCc predecessor of Han et al. (ICDM 2017).
package tmark

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"tmark/internal/accel"
	"tmark/internal/hin"
	"tmark/internal/markov"
	"tmark/internal/par"
	"tmark/internal/tensor"
	"tmark/internal/vec"
)

// Config holds the algorithm's hyper-parameters. The zero value is not
// runnable; use DefaultConfig as a starting point.
type Config struct {
	// Alpha is the restart probability: the weight of the labelled-seed
	// vector l at every step. The paper tunes it per dataset (0.8 on DBLP,
	// 0.9 on NUS/ACM/Movies). Must lie in (0, 1).
	Alpha float64
	// Gamma scales the feature channel against the relational channel:
	// γ=0 uses only the relation tensor, γ=1 only feature similarities.
	// β = γ·(1−α). Must lie in [0, 1].
	Gamma float64
	// Lambda is the relative confidence threshold of the ICA update
	// (eq. 12): after each iteration, unlabelled node i is accepted as a
	// pseudo-seed of its argmax class when x[i] exceeds Lambda times the
	// largest unlabelled-node probability of that class. Must lie in
	// (0, 1].
	Lambda float64
	// Epsilon is the convergence threshold on ρ_t.
	Epsilon float64
	// MaxIterations bounds the iteration count per class.
	MaxIterations int
	// ICAUpdate enables the iterative re-seeding of l (T-Mark). With it
	// disabled the solver is the TensorRrCc baseline.
	ICAUpdate bool
	// FeatureTopK sparsifies the feature transition W to the top-K cosine
	// neighbours per column; 0 keeps the paper's dense cosine matrix.
	// Bag-of-words features share so much background vocabulary that the
	// dense W is nearly uniform; a modest K concentrates the feature walk.
	FeatureTopK int
	// Workers bounds the compute concurrency of the solver: the hot-loop
	// kernels (the O and R tensor contractions and the W·x product) are
	// sharded across a worker pool of this size, and model construction
	// uses the same bound for the cosine-similarity build. 0 means
	// GOMAXPROCS; 1 runs fully serial. Results are bitwise the same at
	// every Workers value: no kernel's float order depends on the pool.
	Workers int
}

// DefaultConfig returns the paper's default hyper-parameters (DBLP
// settings: α=0.8, γ=0.6). Workers is left at 0, which resolves to
// GOMAXPROCS at run time; set it to 1 for a fully serial solve.
func DefaultConfig() Config {
	return Config{
		Alpha:         0.8,
		Gamma:         0.6,
		Lambda:        0.7,
		Epsilon:       1e-8,
		MaxIterations: 100,
		ICAUpdate:     true,
		FeatureTopK:   0,
	}
}

// Validate checks the parameter ranges.
func (c Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("tmark: Alpha %v out of (0,1)", c.Alpha)
	}
	if c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("tmark: Gamma %v out of [0,1]", c.Gamma)
	}
	if c.Lambda <= 0 || c.Lambda > 1 {
		return fmt.Errorf("tmark: Lambda %v out of (0,1]", c.Lambda)
	}
	if c.Epsilon <= 0 {
		return fmt.Errorf("tmark: Epsilon %v must be positive", c.Epsilon)
	}
	if c.MaxIterations <= 0 {
		return fmt.Errorf("tmark: MaxIterations %d must be positive", c.MaxIterations)
	}
	if c.Workers < 0 {
		return fmt.Errorf("tmark: Workers %d must not be negative (0 means GOMAXPROCS)", c.Workers)
	}
	return nil
}

// Beta returns β = γ·(1−α), the effective weight of the feature channel.
func (c Config) Beta() float64 { return c.Gamma * (1 - c.Alpha) }

// matvec is the feature-channel contract: dst = W·x. The dense cosine
// matrix and the CSR top-K matrix both satisfy it.
type matvec interface {
	MulVec(x, dst []float64)
}

// Model is a T-Mark instance bound to one network: the transition tensors
// O and R, the feature transition matrix W, and the training labels. Build
// it once with New and solve with Run; a Model is safe for concurrent Run
// calls because solving never mutates it.
type Model struct {
	graph *hin.Graph
	cfg   Config

	o *tensor.NodeTransition
	r *tensor.RelationTransition
	w matvec // nil when Gamma == 0

	irreducible bool

	// The fast tier's collapsed linear operator, built lazily on the
	// first approximate solve (see linearSystem). The sync.Once is the
	// only mutable state a solve ever touches on the Model, so concurrent
	// Run/SolveColumns calls stay safe.
	linOnce sync.Once
	lin     *accel.System
	linErr  error
}

// New builds a model from the graph's adjacency tensor and features.
// The graph must validate; classes without any labelled node are allowed
// (their restart vector falls back to uniform) but unlabeled-only graphs
// are rejected.
func New(g *hin.Graph, cfg Config) (*Model, error) {
	m, _, err := NewWithAdjacency(g, cfg)
	return m, err
}

// NewWithAdjacency is New that also returns the adjacency tensor it
// normalised into O and R, for a caller that keeps the raw adjacency (a
// streaming engine folds deltas into it) and would otherwise build it
// a second time. The model holds no reference to the tensor.
func NewWithAdjacency(g *hin.Graph, cfg Config) (*Model, *tensor.Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if g.Q() == 0 {
		return nil, nil, errors.New("tmark: graph has no classes")
	}
	anyLabel := false
	for i := 0; i < g.N(); i++ {
		if g.Labeled(i) {
			anyLabel = true
			break
		}
	}
	if !anyLabel {
		return nil, nil, errors.New("tmark: graph has no labelled nodes")
	}
	a := g.AdjacencyTensor()
	m := &Model{
		graph:       g,
		cfg:         cfg,
		o:           tensor.NewNodeTransition(a),
		r:           tensor.NewRelationTransition(a),
		irreducible: a.Irreducible(),
	}
	if cfg.Gamma > 0 {
		pool := par.New(cfg.workerCount())
		if cfg.FeatureTopK > 0 {
			// The sparsified channel keeps only O(n·K) weights, so the
			// per-iteration cost stays linear on large networks.
			m.w = markov.SparseFeatureTransitionCSRPar(g.FeatureMatrix(), cfg.FeatureTopK, pool)
		} else {
			m.w = markov.FeatureTransitionPar(g.FeatureMatrix(), pool)
		}
		pool.Close()
	}
	return m, a, nil
}

// workerCount resolves the Workers knob: 0 means GOMAXPROCS.
func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Irreducible reports whether the adjacency tensor satisfied the paper's
// irreducibility assumption. The solver works either way (the restart term
// keeps the iteration inside the simplex); reducible inputs merely lose
// the strict-positivity guarantee of Theorem 2.
func (m *Model) Irreducible() bool { return m.irreducible }

// Graph returns the network the model was built on.
func (m *Model) Graph() *hin.Graph { return m.graph }

// Config returns the model's hyper-parameters.
func (m *Model) Config() Config { return m.cfg }

// ClassResult is the stationary solution for one class.
type ClassResult struct {
	Class      int
	X          vec.Vector // stationary node distribution x̄ (length n)
	Z          vec.Vector // stationary relation distribution z̄ (length m)
	Iterations int
	Converged  bool
	Trace      []float64 // ρ_t after each iteration (Fig. 10 data)
	Seeds      int       // labelled nodes of this class in the restart set
	// Restart is the final restart vector l — the labelled seeds plus any
	// pseudo-seeds the ICA update accepted. Explain uses it to decompose
	// node scores exactly.
	Restart vec.Vector
}

// Result bundles the per-class solutions.
type Result struct {
	Classes []ClassResult
	// Reason records why the run returned: convergence, the iteration
	// cap, or a context interruption. Results deserialised from disk
	// carry ReasonUnknown.
	Reason Reason
	// Stopped is nil when the run completed naturally and the context's
	// error (context.Canceled or context.DeadlineExceeded) when the run
	// was interrupted. On an interrupted run the Classes hold the partial
	// solution reached so far, which remains valid input for Predict,
	// the rankings, and RunWarm.
	Stopped error
	// Faults lists every numerical-health event the run's guards
	// detected, oldest first. A run that recovered through the automatic
	// demoted retry still reports the original fault here while Reason
	// records the final outcome (e.g. ReasonConverged).
	Faults  []Fault
	n, m, q int
}

// RunClass solves a single class on its own; exposed for experiments
// that sweep parameters on one class at a time (Fig. 10). The class is
// one uncoupled engine column: under the ICA update it reseeds on its
// own scores alone (eq. 12 without the cross-class argmax), since there
// is no prediction matrix to consult.
func (m *Model) RunClass(c int) ClassResult {
	if c < 0 || c >= m.graph.Q() {
		panic(fmt.Sprintf("tmark: class %d out of range %d", c, m.graph.Q()))
	}
	rs := m.newRunScratch(runOptions{}, 1)
	defer rs.close()
	cols := []engineCol{{columnState: m.classColumn(c, nil, false)}}
	m.newEngine(rs, cols).run(context.Background())
	return cols[0].classResult(c)
}

// seedVector builds the initial restart vector l for class c (eq. 11):
// uniform over the labelled nodes carrying c, or uniform over all nodes if
// the class has no seeds.
func (m *Model) seedVector(c int) (vec.Vector, int) {
	n := m.graph.N()
	l := vec.New(n)
	count := 0
	for i := 0; i < n; i++ {
		if m.graph.HasLabel(i, c) {
			l[i] = 1
			count++
		}
	}
	if count == 0 {
		return vec.Uniform(n), 0
	}
	vec.Scale(1/float64(count), l)
	return l, count
}
