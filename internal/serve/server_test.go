package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tmark/internal/fault"
	"tmark/internal/hin"
	"tmark/internal/obs"
	"tmark/internal/tmark"
)

// testGraph builds a small homophilous 4-class network with every class
// labelled.
func testGraph(n int) *hin.Graph {
	rng := rand.New(rand.NewSource(3))
	g := hin.New("c0", "c1", "c2", "c3")
	for i := 0; i < n; i++ {
		f := make([]float64, 16)
		for d := 0; d < 6; d++ {
			f[(i%4)*4+rng.Intn(4)]++
		}
		g.AddNode(fmt.Sprintf("n%d", i), f)
	}
	for k := 0; k < 3; k++ {
		g.AddRelation(fmt.Sprintf("rel%d", k), false)
		for e := 0; e < 3*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Float64() < 0.7 {
				v = (v/4)*4 + u%4
				if v >= n {
					v -= 4
				}
			}
			if u != v {
				g.AddEdge(k, u, v)
			}
		}
	}
	for i := 0; i < n; i += 5 {
		g.SetLabels(i, i%4)
	}
	return g
}

// classSeeds lists class c's labelled nodes.
func classSeeds(g *hin.Graph, c int) []int {
	var out []int
	for i := 0; i < g.N(); i++ {
		if g.HasLabel(i, c) {
			out = append(out, i)
		}
	}
	return out
}

// fastConfig converges in a few iterations with one worker and no
// cross-class coupling, so query results are reproducible.
func fastConfig() tmark.Config {
	cfg := tmark.DefaultConfig()
	cfg.Workers = 1
	cfg.Epsilon = 1e-10
	cfg.ICAUpdate = false
	return cfg
}

// slowServeConfig never converges within the cap — for cancellation and
// drain tests.
func slowServeConfig() tmark.Config {
	cfg := fastConfig()
	cfg.Epsilon = 1e-300
	cfg.MaxIterations = 100000
	return cfg
}

func newTestServer(t *testing.T, g *hin.Graph, cfg tmark.Config, mutate func(*Options)) *Server {
	t.Helper()
	opts := Options{
		Datasets: map[string]*hin.Graph{"test": g},
		Config:   cfg,
		Registry: obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Drain)
	return s
}

func postClassify(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /classify: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func TestClassifyEndpoint(t *testing.T) {
	g := testGraph(80)
	cfg := fastConfig()
	s := newTestServer(t, g, cfg, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seeds := classSeeds(g, 1)
	resp, body := postClassify(t, ts.URL, &ClassifyRequest{Seeds: seeds, Scores: true, TopLinks: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Dataset != "test" || out.Seeds != len(seeds) || !out.Converged || out.Coalesced < 1 {
		t.Fatalf("bad response header fields: %+v", out)
	}
	if len(out.Scores) != g.N() {
		t.Fatalf("scores length %d, want %d", len(out.Scores), g.N())
	}
	if len(out.Links) != 2 {
		t.Fatalf("links length %d, want 2", len(out.Links))
	}
	if out.Links[0].Score < out.Links[1].Score {
		t.Fatalf("links not sorted: %+v", out.Links)
	}

	// The served scores round-trip bitwise to the direct solver result.
	model, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatalf("tmark.New: %v", err)
	}
	ref, err := model.SolveColumn(context.Background(), tmark.ColumnQuery{Seeds: seeds})
	if err != nil {
		t.Fatalf("SolveColumn: %v", err)
	}
	for i := range ref.X {
		if out.Scores[i] != ref.X[i] {
			t.Fatalf("scores[%d] = %v, want %v (bitwise)", i, out.Scores[i], ref.X[i])
		}
	}
	if out.Iterations != ref.Iterations {
		t.Fatalf("iterations %d, want %d", out.Iterations, ref.Iterations)
	}
}

func TestClassifyDefaultsTopNodes(t *testing.T) {
	g := testGraph(60)
	s := newTestServer(t, g, fastConfig(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postClassify(t, ts.URL, &ClassifyRequest{Seeds: []int{0, 4}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out.Scores) != 0 {
		t.Fatalf("scores should be omitted by default")
	}
	if len(out.TopNodes) != DefaultTopNodes {
		t.Fatalf("top nodes %d, want %d", len(out.TopNodes), DefaultTopNodes)
	}
	for i := 1; i < len(out.TopNodes); i++ {
		if out.TopNodes[i-1].Score < out.TopNodes[i].Score {
			t.Fatalf("top nodes not sorted: %+v", out.TopNodes)
		}
	}
	if len(out.Links) != g.M() {
		t.Fatalf("links %d, want all %d", len(out.Links), g.M())
	}
}

func TestClassifyErrors(t *testing.T) {
	g := testGraph(60)
	s := newTestServer(t, g, fastConfig(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		return resp
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"no seeds", `{}`, http.StatusBadRequest},
		{"unknown field", `{"seeds":[1],"bogus":true}`, http.StatusBadRequest},
		{"trailing data", `{"seeds":[1]} {"seeds":[2]}`, http.StatusBadRequest},
		{"negative seed", `{"seeds":[-1]}`, http.StatusBadRequest},
		{"out of range seed", `{"seeds":[100000]}`, http.StatusBadRequest},
		{"unknown dataset", `{"seeds":[1],"dataset":"nope"}`, http.StatusNotFound},
		{"bad alpha", `{"seeds":[1],"alpha":2.0}`, http.StatusBadRequest},
		{"bad max iterations", `{"seeds":[1],"max_iterations":-3}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := post(c.body).StatusCode; got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/classify")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /classify: status %d, want 405", resp.StatusCode)
	}
}

func TestRankEndpoint(t *testing.T) {
	g := testGraph(80)
	cfg := fastConfig()
	s := newTestServer(t, g, cfg, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/rank?top=2")
	if err != nil {
		t.Fatalf("GET /rank: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Classes) != g.Q() {
		t.Fatalf("classes %d, want %d", len(out.Classes), g.Q())
	}
	model, err := tmark.New(g, cfg)
	if err != nil {
		t.Fatalf("tmark.New: %v", err)
	}
	full := model.Run()
	for c, cl := range out.Classes {
		if cl.Name != g.Classes[c] || len(cl.Links) != 2 {
			t.Fatalf("class %d: %+v", c, cl)
		}
		wantTop := full.LinkRanking(c)[0].Relation
		if cl.Links[0].Relation != wantTop {
			t.Fatalf("class %d top link %d, want %d", c, cl.Links[0].Relation, wantTop)
		}
	}
}

func TestHealthzReadyzAndDrainFlip(t *testing.T) {
	g := testGraph(40)
	s := newTestServer(t, g, fastConfig(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d", got)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d before drain", got)
	}
	s.Drain()
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d during drain (process is still alive)", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d during drain, want 503", got)
	}
	resp, _ := postClassify(t, ts.URL, &ClassifyRequest{Seeds: []int{0}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/classify during drain = %d, want 503", resp.StatusCode)
	}
}

// TestDrainCancelsInflight: a request held at the solve gate when Drain
// fires still completes — with Stopped set and its partial (seed-state)
// scores — instead of running its full solve. The test pins the
// request deterministically by pre-filling the server's solve-slot
// semaphore, so the batch is collected but cannot start solving until
// after the drain has cancelled the solve context.
func TestDrainCancelsInflight(t *testing.T) {
	g := testGraph(60)
	s := newTestServer(t, g, slowServeConfig(), func(o *Options) { o.MaxConcurrent = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only solve slot.
	s.slots <- struct{}{}

	type reply struct {
		resp *http.Response
		body []byte
	}
	done := make(chan reply, 1)
	go func() {
		body, _ := json.Marshal(&ClassifyRequest{Seeds: []int{0, 4}, Scores: true})
		resp, err := http.Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- reply{}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		done <- reply{resp, buf.Bytes()}
	}()

	// Wait until the dispatcher has collected the request (the admission
	// queue empties) and is blocked on the slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.met.requests.Load() == 0 || s.cache.queueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("request never reached the dispatcher")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	// Release the slot: the held batch now solves under the cancelled
	// drain context and must return within one solver iteration.
	<-s.slots

	select {
	case r := <-done:
		if r.resp == nil {
			t.Fatalf("in-flight request failed transport-level")
		}
		if r.resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight request status %d: %s", r.resp.StatusCode, r.body)
		}
		var out ClassifyResponse
		if err := json.Unmarshal(r.body, &out); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if out.Stopped == "" {
			t.Fatalf("drained request should carry Stopped, got %+v", out)
		}
		// Within one solver iteration of the cancellation — here the
		// context was cancelled before the solve began, so not even one
		// iteration runs (the 100k-iteration cap would take far longer).
		if out.Iterations > 1 {
			t.Fatalf("drained request ran %d iterations, want ≤ 1", out.Iterations)
		}
		if len(out.Scores) != g.N() {
			t.Fatalf("partial scores length %d, want %d", len(out.Scores), g.N())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("drained request never completed")
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatalf("Drain never returned")
	}
}

// TestDrainIgnoresStalledBody: a client that sent its headers and only
// half of its body has not been admitted, so Drain returns without
// waiting for it (the HTTP shutdown deadline owns that connection).
// When the body does arrive, the request is shed as draining.
func TestDrainIgnoresStalledBody(t *testing.T) {
	s := newTestServer(t, testGraph(40), fastConfig(), nil)
	body := &readSignal{reading: make(chan struct{})}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body.ReadCloser = r.Body
		r.Body = body
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	req := `{"seeds":[0,4],"scores":true}`
	half := len(req) / 2
	if _, err := fmt.Fprintf(conn, "POST /classify HTTP/1.1\r\nHost: tmark\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(req), req[:half]); err != nil {
		t.Fatalf("write headers: %v", err)
	}
	select {
	case <-body.reading:
	case <-time.After(5 * time.Second):
		t.Fatalf("handler never read the body")
	}

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatalf("Drain waited on a client stalled mid-body")
	}

	if _, err := io.WriteString(conn, req[half:]); err != nil {
		t.Fatalf("write rest of body: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	defer resp.Body.Close()
	var out ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || out.Reason != ReasonDraining {
		t.Fatalf("late body after drain: status %d reason %q, want 503 %q", resp.StatusCode, out.Reason, ReasonDraining)
	}
}

// readSignal closes reading on the first Read of the body it wraps.
type readSignal struct {
	io.ReadCloser
	once    sync.Once
	reading chan struct{}
}

func (b *readSignal) Read(p []byte) (int, error) {
	b.once.Do(func() { close(b.reading) })
	return b.ReadCloser.Read(p)
}

// TestDrainCancelsRetiredCoalescer: a batch in flight on a model that an
// ingest-style invalidation has already dropped from the cache is still
// cancelled by Drain, so its request gets a partial result within one
// iteration and Drain does not wait out a full solve. The batch is held
// at the solve fault point while the model is dropped and the drain
// starts.
func TestDrainCancelsRetiredCoalescer(t *testing.T) {
	g := testGraph(60)
	s := newTestServer(t, g, slowServeConfig(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t.Cleanup(fault.Reset)
	started := make(chan struct{})
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	fault.Inject(fault.ServeBatchSolve, fault.Once(func(...any) {
		close(started)
		<-release
	}))

	type reply struct {
		resp *http.Response
		body []byte
	}
	done := make(chan reply, 1)
	go func() {
		body, _ := json.Marshal(&ClassifyRequest{Seeds: []int{0, 4}, Scores: true})
		resp, err := http.Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- reply{}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		done <- reply{resp, buf.Bytes()}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatalf("batch never reached the solver")
	}

	s.cache.invalidateName("test")
	if n := s.cache.size(); n != 0 {
		t.Fatalf("cache holds %d entries after invalidation, want 0", n)
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	unblock()

	select {
	case r := <-done:
		if r.resp == nil {
			t.Fatalf("in-flight request failed transport-level")
		}
		if r.resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight request status %d: %s", r.resp.StatusCode, r.body)
		}
		var out ClassifyResponse
		if err := json.Unmarshal(r.body, &out); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if out.Stopped == "" || out.Iterations > 1 {
			t.Fatalf("retired batch ran %d iterations (stopped %q), want a cancelled solve of at most 1", out.Iterations, out.Stopped)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("request on the retired model never completed")
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatalf("Drain never returned")
	}
}

// TestCacheLRUEviction: hyperparameter overrides mint new cache keys and
// the LRU bound holds.
func TestCacheLRUEviction(t *testing.T) {
	g := testGraph(40)
	s := newTestServer(t, g, fastConfig(), func(o *Options) { o.CacheSize = 2 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, alpha := range []float64{0.5, 0.6, 0.7, 0.8} {
		a := alpha
		resp, body := postClassify(t, ts.URL, &ClassifyRequest{Seeds: []int{0}, Alpha: &a})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alpha=%v: status %d: %s", a, resp.StatusCode, body)
		}
	}
	if got := s.cache.size(); got != 2 {
		t.Fatalf("cache size %d, want 2", got)
	}
	if got := s.met.cacheEvictions.Load(); got != 2 {
		t.Fatalf("evictions %d, want 2", got)
	}
	// Re-hitting the most recent key is a cache hit.
	a := 0.8
	hitsBefore := s.met.cacheHits.Load()
	if resp, _ := postClassify(t, ts.URL, &ClassifyRequest{Seeds: []int{0}, Alpha: &a}); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-hit failed")
	}
	if s.met.cacheHits.Load() != hitsBefore+1 {
		t.Fatalf("expected a cache hit")
	}
}

// waitDepth polls the coalescer's admission queue until it holds want
// jobs.
func waitDepth(t *testing.T, c *coalescer, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.depth() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", want, c.depth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescerOverload: with the dispatcher held at the solve gate and
// a depth-1 queue filled, the next admission fails fast with
// ErrOverloaded.
func TestCoalescerOverload(t *testing.T) {
	g := testGraph(60)
	model, err := tmark.New(g, fastConfig())
	if err != nil {
		t.Fatalf("tmark.New: %v", err)
	}
	slots := make(chan struct{}, 1)
	slots <- struct{}{} // hold every batch at the solve gate
	c := newCoalescer(context.Background(), model, 1, 1, slots, nil)
	defer c.stop()

	// Job 1 goes straight into the queue, so the wait below cannot pass
	// before it was enqueued (job 2 would then find the queue full).
	j1 := &job{query: tmark.ColumnQuery{Seeds: []int{0}}, resp: make(chan jobResult, 1)}
	c.queue <- j1
	res1 := make(chan error, 1)
	go func() { res1 <- (<-j1.resp).err }()
	waitDepth(t, c, 0) // dispatcher took job 1 and is blocked on the slot
	res2 := make(chan error, 1)
	go func() {
		_, _, err := c.do(context.Background(), tmark.ColumnQuery{Seeds: []int{4}})
		res2 <- err
	}()
	waitDepth(t, c, 1) // job 2 fills the queue
	if _, _, err := c.do(context.Background(), tmark.ColumnQuery{Seeds: []int{8}}); err != ErrOverloaded {
		t.Fatalf("third admission: err = %v, want ErrOverloaded", err)
	}
	<-slots // release the gate; both held queries now solve
	for i, ch := range []chan error{res1, res2} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("request %d: %v", i+1, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never completed", i+1)
		}
	}
	c.stop()
	if _, _, err := c.do(context.Background(), tmark.ColumnQuery{Seeds: []int{0}}); err != ErrDraining {
		t.Fatalf("post-stop admission: err = %v, want ErrDraining", err)
	}
}

// TestCoalescingBatchesConcurrentQueries: queries that arrive while the
// dispatcher is held at the solve gate all fold into one lockstep batch,
// and the batch width is reported back to each of them.
func TestCoalescingBatchesConcurrentQueries(t *testing.T) {
	g := testGraph(60)
	model, err := tmark.New(g, fastConfig())
	if err != nil {
		t.Fatalf("tmark.New: %v", err)
	}
	slots := make(chan struct{}, 1)
	slots <- struct{}{} // hold the dispatcher at the solve gate
	c := newCoalescer(context.Background(), model, 8, 64, slots, nil)
	defer c.stop()

	widths := make(chan int, 5)
	for i := 0; i < 5; i++ {
		i := i
		go func() {
			_, w, err := c.do(context.Background(), tmark.ColumnQuery{Seeds: []int{4 * i}})
			if err != nil {
				w = -1
			}
			widths <- w
		}()
	}
	// The dispatcher holds one job at the gate; the other four queue up.
	waitDepth(t, c, 4)
	<-slots // release: all five coalesce into one width-5 batch

	for i := 0; i < 5; i++ {
		if w := <-widths; w != 5 {
			t.Errorf("query rode a width-%d batch, want 5", w)
		}
	}
}

func TestNewOptionValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Errorf("no datasets should be rejected")
	}
	g := testGraph(20)
	two := map[string]*hin.Graph{"a": g, "b": g}
	if _, err := New(Options{Datasets: two, Registry: obs.NewRegistry()}); err == nil {
		t.Errorf("ambiguous default should be rejected")
	}
	if _, err := New(Options{Datasets: two, Default: "c", Registry: obs.NewRegistry()}); err == nil {
		t.Errorf("missing default dataset should be rejected")
	}
	bad := tmark.DefaultConfig()
	bad.Alpha = 2
	if _, err := New(Options{Datasets: map[string]*hin.Graph{"a": g}, Config: bad, Registry: obs.NewRegistry()}); err == nil {
		t.Errorf("invalid base config should be rejected")
	}
}

func TestMetricsEndpointExposesServingGauges(t *testing.T) {
	g := testGraph(40)
	s := newTestServer(t, g, fastConfig(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, _ := postClassify(t, ts.URL, &ClassifyRequest{Seeds: []int{0}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify failed")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"tmarkd_requests_total 1",
		"tmarkd_batches_total 1",
		"tmarkd_coalesce_ratio",
		"tmarkd_queue_depth",
		"tmarkd_classify_latency_p50_seconds",
		"tmarkd_classify_latency_p99_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
