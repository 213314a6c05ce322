package tmark

import (
	"math"
	"testing"
)

// ckConfig is a config whose runs take comfortably more than ten
// iterations, so a fault injected in the first few iterations always
// lands mid-solve.
func ckConfig(ica bool, workers int) Config {
	cfg := DefaultConfig()
	cfg.ICAUpdate = ica
	cfg.Epsilon = 1e-10
	cfg.MaxIterations = 40
	cfg.Workers = workers
	return cfg
}

func TestConfigHashIgnoresWorkers(t *testing.T) {
	a := ckConfig(true, 1)
	b := ckConfig(true, 8)
	if HashConfig(a) != HashConfig(b) {
		t.Error("Workers changed the config hash")
	}
	c := ckConfig(true, 1)
	c.Epsilon *= 2
	if HashConfig(a) == HashConfig(c) {
		t.Error("Epsilon did not change the config hash")
	}
}

func TestGuardHelpers(t *testing.T) {
	g := DefaultGuards()
	if kind, bad := badMass(math.NaN(), false, nil); !bad || kind != faultNonFinite {
		t.Errorf("NaN mass: %q %v", kind, bad)
	}
	if kind, bad := badMass(1+2e-6, true, &g); !bad || kind != faultMassDrift {
		t.Errorf("drifted mass: %q %v", kind, bad)
	}
	if _, bad := badMass(1+2e-6, true, nil); bad {
		t.Error("mass drift flagged without guards")
	}
	if _, bad := badMass(1, true, &g); bad {
		t.Error("unit mass flagged")
	}
	if !stagnated([]float64{1, 0.5, 0.1001, 0.1002, 0.1001}, &GuardConfig{Stagnation: 3, StagnationTol: 1e-2}) {
		t.Error("flat tail not flagged as stagnated")
	}
	if stagnated([]float64{1, 0.5, 0.25, 0.12, 0.06}, &GuardConfig{Stagnation: 3, StagnationTol: 1e-2}) {
		t.Error("decaying tail flagged as stagnated")
	}
	if !diverged(2000, 1, &g) {
		t.Error("residual 2000x best not flagged as diverged")
	}
	if diverged(2, 1, &g) {
		t.Error("residual 2x best flagged as diverged")
	}
}
