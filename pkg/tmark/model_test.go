package tmark_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"tmark/internal/artifact"
	"tmark/internal/serve"
	"tmark/pkg/hin"
	"tmark/pkg/tmark"
)

// newModelServer is newClientServer with the toy graph also compiled
// into an artifact registry, so model references resolve both ways.
func newModelServer(t *testing.T) (*tmark.Client, string) {
	t.Helper()
	cfg := tmark.DefaultConfig()
	cfg.Workers = 1
	cfg.ICAUpdate = false
	g := clientGraph()
	dir := t.TempDir()
	reg, err := artifact.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, hash, err := artifact.Compile(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Put(blob); err != nil {
		t.Fatal(err)
	}
	if err := reg.Tag("toy", hash); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Options{
		Datasets: map[string]*hin.Graph{"toy": g},
		Config:   cfg,
		ModelDir: dir,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return tmark.NewClient(ts.URL), hash
}

func TestClientClassifyModelOptions(t *testing.T) {
	c, hash := newModelServer(t)
	ctx := context.Background()

	resp, err := c.ClassifyModel(ctx, "toy", []int{0},
		tmark.WithScores(), tmark.WithTop(3), tmark.WithQuality("exact"))
	if err != nil {
		t.Fatalf("ClassifyModel: %v", err)
	}
	if resp.Model != "toy" || resp.ModelHash != "sha256:"+hash {
		t.Fatalf("echo model %q hash %q, want toy @ %s", resp.Model, resp.ModelHash, hash)
	}
	if len(resp.Scores) != 12 || len(resp.TopNodes) != 3 || resp.Quality != "exact" {
		t.Fatalf("scores %d topnodes %d quality %q", len(resp.Scores), len(resp.TopNodes), resp.Quality)
	}

	// Naming no model answers bitwise identically: the default and the
	// named reference front the same warm model.
	def, err := c.ClassifyModel(ctx, "", []int{0}, tmark.WithScores())
	if err != nil {
		t.Fatalf("ClassifyModel(default): %v", err)
	}
	if def.Model != "toy" || def.ModelHash != resp.ModelHash {
		t.Fatalf("default echo model %q hash %q, want toy @ %s", def.Model, def.ModelHash, resp.ModelHash)
	}
	for i := range resp.Scores {
		if resp.Scores[i] != def.Scores[i] {
			t.Fatalf("score[%d]: %v (named) vs %v (default)", i, resp.Scores[i], def.Scores[i])
		}
	}

	// Pinning the echoed hash keeps resolving; an Alpha override selects
	// a different warm model and must change the solution.
	pinned, err := c.ClassifyModel(ctx, "toy@sha256:"+hash, []int{0}, tmark.WithScores())
	if err != nil {
		t.Fatalf("ClassifyModel(pinned): %v", err)
	}
	if pinned.ModelHash != "sha256:"+hash {
		t.Fatalf("pinned echo %q", pinned.ModelHash)
	}
	hot, err := c.ClassifyModel(ctx, "toy", []int{0}, tmark.WithScores(), tmark.WithAlpha(0.25))
	if err != nil {
		t.Fatalf("ClassifyModel(alpha): %v", err)
	}
	same := true
	for i := range hot.Scores {
		same = same && hot.Scores[i] == resp.Scores[i]
	}
	if same {
		t.Fatal("alpha override did not change the solution")
	}

	// Option validation stays client-side: no seeds → error before any
	// network traffic, unknown quality → server-side 400.
	if _, err := c.ClassifyModel(ctx, "toy", nil); err == nil {
		t.Fatal("empty seed set accepted")
	}
	se := &tmark.ServiceError{}
	if _, err := c.ClassifyModel(ctx, "toy", []int{0}, tmark.WithQuality("psychic")); err == nil {
		t.Fatal("unknown quality accepted")
	} else if errors.As(err, &se) && se.StatusCode != 400 {
		t.Fatalf("unknown quality: %v", err)
	}
}

func TestClientRankModelAndListModels(t *testing.T) {
	c, hash := newModelServer(t)
	ctx := context.Background()

	rank, err := c.RankModel(ctx, "toy", tmark.WithTop(1))
	if err != nil {
		t.Fatalf("RankModel: %v", err)
	}
	if len(rank.Classes) != 2 || len(rank.Classes[0].Links) != 1 {
		t.Fatalf("RankModel: %d classes, %d links", len(rank.Classes), len(rank.Classes[0].Links))
	}
	if rank.ModelHash != "sha256:"+hash {
		t.Fatalf("RankModel hash %q", rank.ModelHash)
	}

	models, err := c.ListModels(ctx)
	if err != nil {
		t.Fatalf("ListModels: %v", err)
	}
	if len(models) != 1 {
		t.Fatalf("ListModels: %+v", models)
	}
	m := models[0]
	if m.Name != "toy" || m.Hash != "sha256:"+hash || m.Source != "artifact+graph" || !m.Default {
		t.Fatalf("ListModels entry: %+v", m)
	}
}
