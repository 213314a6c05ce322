package tmark

import (
	"context"
	"fmt"

	"tmark/internal/vec"
)

// RunWarm solves the tensor equations starting from a previous solution
// instead of the seed vectors; it is RunWarmContext with a background
// context and no options. When labels are added or removed incrementally
// — the streaming-classification setting — the previous stationary
// distributions are near the new ones and the iteration converges in a
// fraction of the cold-start iterations. The previous result must match
// this model's dimensions; class counts may differ (new classes start
// cold).
func (m *Model) RunWarm(prev *Result) *Result {
	return m.RunWarmContext(context.Background(), prev)
}

// RunWarmContext is RunWarm with cancellation and per-run options; see
// RunContext for the contract of ctx, Result.Stopped and the RunOption
// set. A nil prev degrades to a cold RunContext.
func (m *Model) RunWarmContext(ctx context.Context, prev *Result, opts ...RunOption) *Result {
	if prev == nil {
		return m.RunContext(ctx, opts...)
	}
	if prev.n != m.graph.N() || prev.m != m.graph.M() {
		panic(fmt.Sprintf("tmark: RunWarm dimension mismatch: prev %dx%d, graph %dx%d",
			prev.n, prev.m, m.graph.N(), m.graph.M()))
	}
	n, mm := m.graph.N(), m.graph.M()
	ro := resolveOptions(opts)
	warm := func(c int) (x, z, l vec.Vector, ok bool) {
		if c >= len(prev.Classes) {
			return nil, nil, nil, false
		}
		pc := &prev.Classes[c]
		if len(pc.X) != n || len(pc.Z) != mm {
			return nil, nil, nil, false
		}
		if ro.eqRestart && m.cfg.ICAUpdate && len(pc.Restart) == n {
			l = m.reconcileRestart(c, pc.Restart)
		}
		return vec.Clone(pc.X), vec.Clone(pc.Z), l, true
	}
	return m.runClasses(orBackground(ctx), warm, ro)
}

// reconcileRestart rebuilds a previous equilibrium restart vector
// against the current labels: every current seed of class c is in, a
// previous pseudo-seed survives only while its node is still
// unlabelled. With unchanged labels this reproduces the previous
// equilibrium exactly; after a label change it degrades gracefully to
// the consistent subset. Only meaningful under ICAUpdate — without the
// reseed, l is the problem definition and must stay the seed vector —
// so callers gate on the config. Returns nil (cold restart) when the
// reconciled set is empty.
func (m *Model) reconcileRestart(c int, prev vec.Vector) vec.Vector {
	l := vec.New(len(prev))
	count := 0
	for i := range prev {
		accept := m.graph.HasLabel(i, c)
		if !accept && prev[i] > 0 && !m.graph.Labeled(i) {
			accept = true
		}
		if accept {
			l[i] = 1
			count++
		}
	}
	if count == 0 {
		return nil
	}
	vec.Scale(1/float64(count), l)
	return l
}
