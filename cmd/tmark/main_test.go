package main

import (
	"context"
	"encoding/json"
	"errors"
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

// TestCheckpointName pins the snapshot-file naming: stable for one
// (input, config) pair, distinct across configs so -resume auto can
// never restore a snapshot from different hyper-parameters.
func TestCheckpointName(t *testing.T) {
	g := datasets.Example()
	cfg := tmark.DefaultConfig()
	cfg.Workers = 1
	m1, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := checkpointName("/data/net.json", m1)
	if a != checkpointName("/elsewhere/net.json", m1) {
		t.Errorf("name depends on the directory: %q", a)
	}
	if !strings.HasPrefix(a, "net-") || !strings.HasSuffix(a, ".ckpt") {
		t.Errorf("name %q, want net-<hash>.ckpt", a)
	}

	cfg.Alpha = 0.5
	m2, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b := checkpointName("/data/net.json", m2); a == b {
		t.Errorf("different configs share checkpoint name %q", a)
	}

	// Workers must NOT change the name: a snapshot resumes bitwise
	// identically under any worker count.
	cfg.Alpha = 0.8
	cfg.Workers = 4
	m3, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := checkpointName("/data/net.json", m3); a != c {
		t.Errorf("worker count changes checkpoint name: %q vs %q", a, c)
	}
}

// TestResumeOption covers every branch of the -resume decision: auto
// mode resumes a matching snapshot, starts cold on a missing one, and
// reports and skips a mismatching or damaged one (whose file the cold
// run's snapshots then overwrite); an explicit path resumes a matching
// snapshot and fails on anything else.
func TestResumeOption(t *testing.T) {
	g := datasets.Example()
	cfg := tmark.DefaultConfig()
	cfg.Workers = 1
	cfg.Epsilon = 1e-300
	cfg.MaxIterations = 12
	model, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Alpha = 0.5
	otherModel, err := tmark.New(g, other)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sink := &tmark.DirSink{Dir: dir, Name: "net.ckpt"}
	path := sink.Path()
	write := func(m *tmark.Model) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		m.RunContext(ctx, tmark.WithCheckpoint(sink, 2), tmark.WithProgress(func(_, iter int, _ float64) {
			if iter == 4 {
				cancel()
			}
		}))
	}
	damage := func() {
		t.Helper()
		if err := os.Truncate(path, 100); err != nil {
			t.Fatal(err)
		}
	}
	try := func(spec string) (tmark.RunOption, string, error) {
		var stderr strings.Builder
		opt, err := resumeOption(spec, path, model, &stderr)
		return opt, stderr.String(), err
	}

	if opt, msg, err := try("auto"); opt != nil || msg != "" || err != nil {
		t.Errorf("auto, no file: (%v, %q, %v), want a silent cold start", opt != nil, msg, err)
	}
	write(model)
	for _, spec := range []string{"auto", path} {
		if opt, msg, err := try(spec); opt == nil || err != nil || !strings.Contains(msg, "resuming from") {
			t.Errorf("%s, matching file: (%v, %q, %v), want a resume", spec, opt != nil, msg, err)
		}
	}
	write(otherModel)
	if opt, msg, err := try("auto"); opt != nil || err != nil || !strings.Contains(msg, "ignored") {
		t.Errorf("auto, mismatching file: (%v, %q, %v), want a reported cold start", opt != nil, msg, err)
	}
	if _, _, err := try(path); !errors.Is(err, tmark.ErrCheckpointMismatch) {
		t.Errorf("explicit mismatching file: err %v, want ErrCheckpointMismatch", err)
	}
	damage()
	if opt, msg, err := try("auto"); opt != nil || err != nil || !strings.Contains(msg, "checksum mismatch") {
		t.Errorf("auto, damaged file: (%v, %q, %v), want a reported cold start", opt != nil, msg, err)
	}
	if _, _, err := try(path); err == nil {
		t.Error("explicit damaged file: no error")
	}
	write(model) // the cold run's snapshots replace the damaged file
	if opt, _, err := try("auto"); opt == nil || err != nil {
		t.Errorf("auto after the cold run: (%v, %v), want a resume from the rewritten file", opt != nil, err)
	}
}
