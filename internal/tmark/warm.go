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
	warm := func(c int) (x, z vec.Vector, ok bool) {
		if c >= len(prev.Classes) {
			return nil, nil, false
		}
		pc := &prev.Classes[c]
		if len(pc.X) != n || len(pc.Z) != mm {
			return nil, nil, false
		}
		return vec.Clone(pc.X), vec.Clone(pc.Z), true
	}
	return m.runClasses(orBackground(ctx), warm, resolveOptions(opts))
}
