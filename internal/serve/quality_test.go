package serve

// End-to-end tests of the quality knob: per-request tier selection on
// /v1/classify and /v1/rank, the server-wide default, the response
// echo, and the hard 400 on unknown spellings.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tmark/internal/tmark"
)

func classifyAt(t *testing.T, url string, seeds []int, quality string) ClassifyResponse {
	t.Helper()
	resp, body := postClassify(t, url, &ClassifyRequest{Seeds: seeds, Quality: quality})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quality %q: status %d: %s", quality, resp.StatusCode, body)
	}
	var out ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out
}

func TestClassifyQualityTiers(t *testing.T) {
	g := testGraph(80)
	s := newTestServer(t, g, fastConfig(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	seeds := classSeeds(g, 2)

	exact := classifyAt(t, ts.URL, seeds, "exact")
	if exact.Quality != "exact" || !exact.Converged {
		t.Fatalf("exact response: %+v", exact)
	}
	blank := classifyAt(t, ts.URL, seeds, "")
	if blank.Quality != "exact" {
		t.Fatalf("blank quality echoed %q, want the exact default", blank.Quality)
	}

	accel := classifyAt(t, ts.URL, seeds, "accelerated")
	if accel.Quality != "accelerated" || !accel.Converged {
		t.Fatalf("accelerated response: %+v", accel)
	}
	if accel.Iterations > exact.Iterations {
		t.Errorf("accelerated took %d iterations, exact %d", accel.Iterations, exact.Iterations)
	}
	if accel.TopNodes[0].Node != exact.TopNodes[0].Node {
		t.Errorf("accelerated top node %d, exact %d", accel.TopNodes[0].Node, exact.TopNodes[0].Node)
	}

	fast := classifyAt(t, ts.URL, seeds, "fast")
	if fast.Quality != "fast" || !fast.Converged {
		t.Fatalf("fast response: %+v", fast)
	}
	if len(fast.TopNodes) == 0 || len(fast.Links) == 0 {
		t.Fatalf("fast response missing rankings: %+v", fast)
	}
}

// An unknown quality is a client error, never a silent default.
func TestClassifyUnknownQualityRejected(t *testing.T) {
	g := testGraph(40)
	s := newTestServer(t, g, fastConfig(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postClassify(t, ts.URL, &ClassifyRequest{Seeds: []int{0}, Quality: "best"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "quality") {
		t.Fatalf("error does not name the quality field: %s", body)
	}
}

// Options.DefaultQuality applies to requests that name no tier, and a
// per-request tier still overrides it.
func TestClassifyServerDefaultQuality(t *testing.T) {
	g := testGraph(60)
	s := newTestServer(t, g, fastConfig(), func(o *Options) {
		o.DefaultQuality = tmark.QualityFast
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	seeds := classSeeds(g, 0)

	blank := classifyAt(t, ts.URL, seeds, "")
	if blank.Quality != "fast" {
		t.Fatalf("default tier echoed %q, want fast", blank.Quality)
	}
	exact := classifyAt(t, ts.URL, seeds, "exact")
	if exact.Quality != "exact" {
		t.Fatalf("override echoed %q, want exact", exact.Quality)
	}
}

func rankAt(t *testing.T, url, query string) (*http.Response, RankResponse) {
	t.Helper()
	resp, err := http.Get(url + "/v1/rank" + query)
	if err != nil {
		t.Fatalf("GET /v1/rank%s: %v", query, err)
	}
	defer resp.Body.Close()
	var out RankResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp, out
}

func TestRankQualityParam(t *testing.T) {
	g := testGraph(80)
	s := newTestServer(t, g, fastConfig(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, fast := rankAt(t, ts.URL, "?quality=fast&top=2")
	if resp.StatusCode != http.StatusOK || fast.Quality != "fast" {
		t.Fatalf("fast rank: status %d, quality %q", resp.StatusCode, fast.Quality)
	}
	if len(fast.Classes) != g.Q() {
		t.Fatalf("fast rank classes %d, want %d", len(fast.Classes), g.Q())
	}
	for c, cl := range fast.Classes {
		if !cl.Converged || len(cl.Links) != 2 {
			t.Fatalf("fast rank class %d: %+v", c, cl)
		}
	}

	// The accelerated tier serves the cached reference solve on /v1/rank.
	resp, accel := rankAt(t, ts.URL, "?quality=accelerated")
	if resp.StatusCode != http.StatusOK || accel.Quality != "exact" {
		t.Fatalf("accelerated rank: status %d, quality %q (want the exact alias)", resp.StatusCode, accel.Quality)
	}

	resp, _ = rankAt(t, ts.URL, "?quality=best")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown quality: status %d, want 400", resp.StatusCode)
	}
}
