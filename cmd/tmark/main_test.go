package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tmark/pkg/datasets"
	"tmark/pkg/obs"
	"tmark/pkg/tmark"
)

func exampleFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "example.json")
	if err := datasets.Example().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadJSONAndCSV(t *testing.T) {
	path := exampleFile(t)
	g, err := load(path, false)
	if err != nil {
		t.Fatalf("load json: %v", err)
	}
	if g.N() != 4 {
		t.Errorf("N = %d", g.N())
	}

	csvPath := filepath.Join(t.TempDir(), "edges.csv")
	if err := os.WriteFile(csvPath, []byte("from,to,relation\na,b,r\nb,c,r"), 0o644); err != nil {
		t.Fatal(err)
	}
	gc, err := load(csvPath, true)
	if err != nil {
		t.Fatalf("load csv: %v", err)
	}
	if gc.N() != 3 || gc.M() != 1 {
		t.Errorf("csv graph %d/%d", gc.N(), gc.M())
	}

	if _, err := load(filepath.Join(t.TempDir(), "missing"), false); err == nil {
		t.Errorf("missing file should error")
	}
}

func TestBuildReport(t *testing.T) {
	g := datasets.Example()
	cfg := tmark.DefaultConfig()
	cfg.Gamma = 0.5
	model, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := model.Run()
	rep := buildReport(g, model, res, 2)
	if !rep.Converged || !rep.Irreducible {
		t.Errorf("report flags wrong: %+v", rep)
	}
	if rep.Stopped != "" {
		t.Errorf("completed run reported Stopped=%q", rep.Stopped)
	}
	if len(rep.Predictions) != 2 {
		t.Fatalf("predictions = %d, want 2 unlabelled nodes", len(rep.Predictions))
	}
	if rep.Predictions[0].Class != "CV" || rep.Predictions[1].Class != "DM" {
		t.Errorf("predicted classes wrong: %+v", rep.Predictions)
	}
	for class, scores := range rep.LinkRanking {
		if len(scores) != 2 {
			t.Errorf("class %s: %d ranked links, want top-2", class, len(scores))
		}
	}
	// The report must serialise cleanly.
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("marshal report: %v", err)
	}
}

// TestStatsAndMetricsPath exercises what `-stats -metrics-addr :0` wires
// together: a run collected via WithStats whose breakdown renders, and a
// live /metrics endpoint exposing the solver's registry aggregates in
// Prometheus text format.
func TestStatsAndMetricsPath(t *testing.T) {
	addr, shutdown, err := obs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())

	g := datasets.Example()
	cfg := tmark.DefaultConfig()
	cfg.Gamma = 0.5
	model, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st tmark.RunStats
	res := model.RunContext(context.Background(), tmark.WithStats(&st))
	if res.Stopped != nil {
		t.Fatalf("Stopped = %v", res.Stopped)
	}
	text := st.String()
	for _, want := range []string{"o_contract", "r_contract", "ica_reseed", "kernel"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats breakdown missing %q:\n%s", want, text)
		}
	}

	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"tmark_runs_total",
		"tmark_iterations_total",
		"tmark_kernel_o_contract_seconds_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q; got:\n%s", want, metrics)
		}
	}
}
