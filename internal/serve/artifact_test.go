package serve

// Artifact-backed serving: equivalence (an mmap-activated model must be
// bitwise indistinguishable from a raw build), the /v1 surface, and the
// chaos cases — truncated, corrupted and swapped blobs must fall back
// to a rebuild and keep serving correct answers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tmark/internal/artifact"
	"tmark/internal/fault"
	"tmark/internal/hin"
	"tmark/internal/obs"
	"tmark/internal/tmark"
)

// buildRegistry compiles g under cfg into a fresh registry rooted in a
// temp dir, tagged as name, returning the dir and the content hash.
func buildRegistry(t *testing.T, name string, g *hin.Graph, cfg tmark.Config) (string, string) {
	t.Helper()
	dir := t.TempDir()
	reg, err := artifact.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, hash, err := artifact.Compile(g, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := reg.Put(blob); err != nil {
		t.Fatal(err)
	}
	if err := reg.Tag(name, hash); err != nil {
		t.Fatal(err)
	}
	return dir, hash
}

// tryClassify posts one scores-on classify to the /v1 surface without
// touching t, so concurrent callers can report errors to the main
// goroutine.
func tryClassify(url string, req *ClassifyRequest) (*ClassifyResponse, error) {
	req.Scores = true
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
	}
	out := &ClassifyResponse{}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return nil, err
	}
	return out, nil
}

// classifyScores is tryClassify with failures fatal to the test.
func classifyScores(t *testing.T, url string, req *ClassifyRequest) *ClassifyResponse {
	t.Helper()
	out, err := tryClassify(url, req)
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	return out
}

func TestArtifactActivationBitwiseIdentical(t *testing.T) {
	g := testGraph(80)
	cfg := fastConfig()
	dir, hash := buildRegistry(t, "test", g, cfg)

	raw := newTestServer(t, g, cfg, nil)
	art := newTestServer(t, g, cfg, func(o *Options) { o.ModelDir = dir })
	tsRaw := httptest.NewServer(raw.Handler())
	defer tsRaw.Close()
	tsArt := httptest.NewServer(art.Handler())
	defer tsArt.Close()

	for c := 0; c < 4; c++ {
		req := &ClassifyRequest{Seeds: classSeeds(g, c)}
		a := classifyScores(t, tsRaw.URL, req)
		b := classifyScores(t, tsArt.URL, &ClassifyRequest{Seeds: classSeeds(g, c)})
		if len(a.Scores) == 0 || len(a.Scores) != len(b.Scores) {
			t.Fatalf("score lengths %d vs %d", len(a.Scores), len(b.Scores))
		}
		for i := range a.Scores {
			if a.Scores[i] != b.Scores[i] {
				t.Fatalf("class %d: score[%d] %v (raw) vs %v (artifact): not bitwise equal", c, i, a.Scores[i], b.Scores[i])
			}
		}
		if a.Iterations != b.Iterations {
			t.Fatalf("iterations %d vs %d", a.Iterations, b.Iterations)
		}
		// Deterministic compilation: the raw build's canonical hash IS
		// the blob hash, so both servers echo the same pin.
		want := "sha256:" + hash
		if a.ModelHash != want || b.ModelHash != want {
			t.Fatalf("model hashes %q (raw) / %q (artifact), want %q", a.ModelHash, b.ModelHash, want)
		}
	}
	if got := art.met.artifactHits.Load(); got == 0 {
		t.Fatal("artifact server served without an artifact hit")
	}
	if got := raw.met.artifactMisses.Load(); got == 0 {
		t.Fatal("raw server recorded no artifact miss")
	}

	// /v1/rank equivalence, full JSON bodies.
	rankBody := func(url string) []byte {
		resp, err := http.Get(url + "/v1/rank?model=test&top=3")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rank status %d: %s", resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}
	if a, b := rankBody(tsRaw.URL), rankBody(tsArt.URL); !bytes.Equal(a, b) {
		t.Fatalf("/v1/rank differs:\nraw:      %s\nartifact: %s", a, b)
	}
}

func TestV1SurfaceAndPinnedRefs(t *testing.T) {
	g := testGraph(40)
	cfg := fastConfig()
	dir, hash := buildRegistry(t, "test", g, cfg)
	s := newTestServer(t, g, cfg, func(o *Options) { o.ModelDir = dir })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seeds := classSeeds(g, 0)
	base := classifyScores(t, ts.URL, &ClassifyRequest{Seeds: seeds})

	// The legacy alias answers identically (modulo the coalesced width,
	// which is timing-dependent; scores are not).
	resp, body := postClassify(t, ts.URL, &ClassifyRequest{Seeds: seeds, Scores: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy /classify status %d: %s", resp.StatusCode, body)
	}
	var legacy ClassifyResponse
	if err := json.Unmarshal(body, &legacy); err != nil {
		t.Fatal(err)
	}
	for i := range base.Scores {
		if base.Scores[i] != legacy.Scores[i] {
			t.Fatal("/v1/classify and /classify disagree")
		}
	}

	// Pinned references: name@hash and bare hash resolve to the same
	// model; a wrong pin is a 404, not a silent fallback.
	for _, ref := range []string{"test@sha256:" + hash, "sha256:" + hash} {
		got := classifyScores(t, ts.URL, &ClassifyRequest{Model: ref, Seeds: seeds})
		if got.ModelHash != "sha256:"+hash {
			t.Fatalf("ref %q echoed %q", ref, got.ModelHash)
		}
	}
	bogus := "sha256:" + "00" + hash[2:]
	resp, body = postClassify(t, ts.URL+"/v1", &ClassifyRequest{Model: "test@" + bogus, Seeds: seeds})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("wrong pin: status %d: %s", resp.StatusCode, body)
	}
	// A `#` fragment is outside the reference grammar: the ref names no
	// model, rather than silently serving the whole parent.
	for _, frag := range []string{"shard=0/2", ""} {
		resp, body = postClassify(t, ts.URL+"/v1", &ClassifyRequest{Model: "test#" + frag, Seeds: seeds})
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("fragment ref %q: status %d: %s", "test#"+frag, resp.StatusCode, body)
		}
	}
	// model and dataset naming different models is a 400.
	resp, body = postClassify(t, ts.URL+"/v1", &ClassifyRequest{Model: "a", Dataset: "b", Seeds: seeds})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicting names: status %d: %s", resp.StatusCode, body)
	}

	// /v1/models lists the pairing with its hash and default marker.
	resp2, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var models ModelsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 1 {
		t.Fatalf("models = %+v", models.Models)
	}
	m := models.Models[0]
	if m.Name != "test" || m.Hash != "sha256:"+hash || m.Source != "artifact+graph" || !m.Default {
		t.Fatalf("model entry = %+v", m)
	}
}

// damageBlob mutates the stored blob file in place.
func damageBlob(t *testing.T, dir, hash string, f func([]byte) []byte) {
	t.Helper()
	reg, err := artifact.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := reg.BlobPath(hash)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestArtifactChaosFallbackToRebuild(t *testing.T) {
	g := testGraph(60)
	cfg := fastConfig()
	seeds := classSeeds(g, 2)

	// Reference answer from a pristine raw build.
	ref := newTestServer(t, g, cfg, nil)
	tsRef := httptest.NewServer(ref.Handler())
	want := classifyScores(t, tsRef.URL, &ClassifyRequest{Seeds: seeds})
	tsRef.Close()

	// Internally valid bytes under the wrong name: only the content-hash
	// check can catch the swap.
	other, _, err := artifact.Compile(testGraph(24), cfg)
	if err != nil {
		t.Fatal(err)
	}
	damages := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"corrupted": func(b []byte) []byte { b[len(b)/2] ^= 0x20; return b },
		"swapped":   func([]byte) []byte { return other },
		"emptied":   func([]byte) []byte { return nil },
	}
	for name, f := range damages {
		t.Run(name, func(t *testing.T) {
			dir, hash := buildRegistry(t, "test", g, cfg)
			damageBlob(t, dir, hash, f)
			s := newTestServer(t, g, cfg, func(o *Options) { o.ModelDir = dir })
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// Concurrent first touches: every request must get the
			// correct rebuilt answer, none may observe the damage.
			var wg sync.WaitGroup
			got := make([]*ClassifyResponse, 4)
			errs := make([]error, len(got))
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = tryClassify(ts.URL, &ClassifyRequest{Seeds: seeds})
				}(i)
			}
			wg.Wait()
			for i, r := range got {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				for i := range want.Scores {
					if r.Scores[i] != want.Scores[i] {
						t.Fatalf("fallback scores differ at %d", i)
					}
				}
				// The rebuilt model's canonical identity replaces the
				// damaged blob's in the echo.
				if r.ModelHash == "" {
					t.Fatal("fallback response lost its model hash")
				}
			}
			if s.met.artifactFails.Load() == 0 {
				t.Fatal("damage served without a verify_fail tick")
			}
			if s.met.artifactHits.Load() != 0 {
				t.Fatal("damaged artifact counted as a hit")
			}
		})
	}
}

func TestArtifactChaosFaultInjection(t *testing.T) {
	g := testGraph(40)
	cfg := fastConfig()
	seeds := classSeeds(g, 1)

	t.Run("open-error", func(t *testing.T) {
		dir, _ := buildRegistry(t, "test", g, cfg)
		defer fault.Reset()
		fault.InjectErr(fault.ArtifactOpen, func() error { return fmt.Errorf("simulated unreadable blob") })
		s := newTestServer(t, g, cfg, func(o *Options) { o.ModelDir = dir })
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if got := classifyScores(t, ts.URL, &ClassifyRequest{Seeds: seeds}); len(got.Scores) != g.N() {
			t.Fatalf("fallback served %d scores", len(got.Scores))
		}
		if s.met.artifactFails.Load() == 0 {
			t.Fatal("no verify_fail recorded")
		}
	})

	t.Run("decode-corruption", func(t *testing.T) {
		dir, _ := buildRegistry(t, "test", g, cfg)
		defer fault.Reset()
		// The hook sees a writable copy of the mapped bytes and flips
		// one mid-file: the crc64 trailer must reject it.
		fault.Inject(fault.ArtifactDecode, func(args ...any) {
			data := args[0].([]byte)
			data[len(data)/2] ^= 0x01
		})
		s := newTestServer(t, g, cfg, func(o *Options) { o.ModelDir = dir })
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if got := classifyScores(t, ts.URL, &ClassifyRequest{Seeds: seeds}); len(got.Scores) != g.N() {
			t.Fatalf("fallback served %d scores", len(got.Scores))
		}
		if s.met.artifactFails.Load() == 0 {
			t.Fatal("no verify_fail recorded")
		}
	})

	t.Run("activate-error-no-fallback", func(t *testing.T) {
		dir, hash := buildRegistry(t, "only", g, cfg)
		defer fault.Reset()
		fault.InjectErr(fault.ArtifactActivate, func() error { return fmt.Errorf("simulated activation fault") })
		// No dataset of that name: the artifact is the only source, so
		// the failure surfaces as a 5xx instead of silently serving.
		s := newTestServer(t, g, cfg, func(o *Options) { o.ModelDir = dir })
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, body := postClassify(t, ts.URL+"/v1", &ClassifyRequest{Model: "sha256:" + hash, Seeds: seeds})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	})
}

func TestArtifactOnlyServing(t *testing.T) {
	g := testGraph(40)
	cfg := fastConfig()
	dir, hash := buildRegistry(t, "solo", g, cfg)
	s, err := New(Options{ModelDir: dir, Config: cfg, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("New without datasets: %v", err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	got := classifyScores(t, ts.URL, &ClassifyRequest{Seeds: classSeeds(g, 0)})
	if got.Model != "solo" || got.ModelHash != "sha256:"+hash {
		t.Fatalf("echo %q %q", got.Model, got.ModelHash)
	}
	// Out-of-range seeds are checked against the artifact's dimensions.
	resp, body := postClassify(t, ts.URL+"/v1", &ClassifyRequest{Seeds: []int{g.N() + 7}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

// A legacy registry that still holds shard artifacts written by the
// removed `tmark build -shards` must serve exactly like one that
// doesn't: the sh-<hash>-<i>-<M> refs point at sub-tensor slices, not
// models, so artifact-only default inference must not count them (one
// parent model + its shards still boots without -default), /v1/models
// must not list them, and the model decoder rejects their blobs
// cleanly.
func TestShardRefsInvisibleToServing(t *testing.T) {
	g := testGraph(40)
	cfg := fastConfig()
	dir, hash := buildRegistry(t, "test", g, cfg)
	reg, err := artifact.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Plant shard 0 of 2 of this model exactly as `tmark build -shards 2`
	// used to write it: the blob (cut from the same deterministic
	// compile, so it records this hash as its parent) under its content
	// hash, and its sh-<hash>-<i>-<M> ref.
	blob, err := os.ReadFile(filepath.Join("testdata", "legacy-shard-0-2.tmar"))
	if err != nil {
		t.Fatal(err)
	}
	shHash, err := reg.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Tag(fmt.Sprintf("sh-%s-0-2", hash), shHash); err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.DecodeBytes(blob); err == nil || !strings.Contains(err.Error(), "no META section") {
		t.Fatalf("DecodeBytes(legacy shard blob) = %v, want a no-META-section error", err)
	}

	s := newTestServer(t, nil, cfg, func(o *Options) {
		o.Datasets = nil
		o.ModelDir = dir
	})
	if s.opts.Default != "test" {
		t.Fatalf("inferred default %q, want %q (shard refs must not count as models)", s.opts.Default, "test")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 1 {
		t.Fatalf("listed %d models, want only the parent: %+v", len(list.Models), list.Models)
	}
	if got := list.Models[0]; got.Name != "test" || got.Hash != "sha256:"+hash {
		t.Fatalf("listed %+v, want name=test hash=sha256:%s", got, hash)
	}
}
