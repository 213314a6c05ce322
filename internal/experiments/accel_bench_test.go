package experiments

// The quality-tier benchmark behind the archived BENCH_6.json:
// one solve per tier on the golden networks, reporting wall time and the
// committed iteration count per solve. The headline row is the slow-
// mixing Ring network, where the extrapolated tier converges in ≥2×
// fewer iterations with identical predictions (asserted by
// TestAccelGoldenSlowMixingTwofold); the expander-like DBLP network
// bounds the other end — barely a dozen iterations to cut, so the tiers
// should be near parity there.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tmark/internal/eval"
	"tmark/internal/hin"
	"tmark/internal/tmark"
)

// slowMixConfig is the deep-iteration configuration the twofold
// assertion uses: small restart weight, no feature channel, no ICA.
func slowMixConfig() tmark.Config {
	cfg := tmark.DefaultConfig()
	cfg.Workers = 1
	cfg.Alpha = 0.05
	cfg.Gamma = 0
	cfg.ICAUpdate = false
	cfg.Epsilon = 1e-9
	cfg.MaxIterations = 2000
	return cfg
}

func BenchmarkAccelTiers(b *testing.B) {
	defaultCfg := tmark.DefaultConfig()
	defaultCfg.Workers = 1
	cases := []struct {
		name  string
		graph *hin.Graph
		cfg   tmark.Config
	}{
		{"ring-slowmix", goldenRing(), slowMixConfig()},
		{"dblp-default", goldenDBLP(), defaultCfg},
	}
	tiers := []struct {
		name string
		opts []tmark.RunOption
	}{
		{"exact", nil},
		{"accelerated", []tmark.RunOption{tmark.WithAcceleration(true)}},
		{"fast", []tmark.RunOption{tmark.WithApproximate(true)}},
	}
	for _, c := range cases {
		split := eval.StratifiedSplit(c.graph, 0.3, rand.New(rand.NewSource(17)))
		masked, _ := eval.MaskLabels(c.graph, split)
		model, err := tmark.New(masked, c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, tier := range tiers {
			b.Run(fmt.Sprintf("%s/%s", c.name, tier.name), func(b *testing.B) {
				b.ReportAllocs()
				var iters int64
				for i := 0; i < b.N; i++ {
					res := model.RunContext(context.Background(), tier.opts...)
					if !res.Converged() {
						b.Fatal("did not converge")
					}
					iters += int64(res.MaxIterations())
				}
				b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
			})
		}
	}
}
