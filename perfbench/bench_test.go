package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"tmark/internal/artifact"
	"tmark/internal/dataset"
	"tmark/internal/serve"
	"tmark/internal/stream"
	"tmark/internal/tmark"
)

func TestSameSeedSameRequestStreams(t *testing.T) {
	bodies := func(qs []classifyQuery) []byte {
		var b bytes.Buffer
		for _, q := range qs {
			b.Write(q.body)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	warmA, streamA, checkedA := classifyStreams(7, 2)
	warmB, streamB, checkedB := classifyStreams(7, 2)
	if !bytes.Equal(bodies(warmA), bodies(warmB)) || !bytes.Equal(bodies(streamA), bodies(streamB)) {
		t.Fatal("classify-coalesced: the same seed gave different request streams")
	}
	if len(checkedA) != checkedQueries || len(checkedA) != len(checkedB) {
		t.Fatalf("checked sample sizes %d, %d", len(checkedA), len(checkedB))
	}
	for i := range checkedA {
		if checkedA[i] != checkedB[i] {
			t.Fatal("classify-coalesced: the same seed gave different checked samples")
		}
	}
	if _, other, _ := classifyStreams(8, 2); bytes.Equal(bodies(other), bodies(streamA)) {
		t.Fatal("classify-coalesced: seeds 7 and 8 gave the same stream")
	}
	seen := map[string]bool{}
	for _, q := range streamA {
		key := string(q.body)
		if q.req.Scores {
			key = strings.Replace(key, `,"scores":true`, "", 1)
		}
		if seen[key] {
			t.Fatalf("classify-coalesced: query %s repeats", q.body)
		}
		seen[key] = true
	}

	ingest := func(seed int64) []byte {
		w := &ingestWorkload{root: t.TempDir()}
		if err := w.prepare(seed, 2); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, body := range w.bodies {
			b.Write(body)
		}
		b.Write(bodies(w.readers))
		return b.Bytes()
	}
	if a, b := ingest(3), ingest(3); !bytes.Equal(a, b) {
		t.Fatal("ingest-live: the same seed gave different request streams")
	} else if bytes.Equal(a, ingest(4)) {
		t.Fatal("ingest-live: seeds 3 and 4 gave the same stream")
	}

	graph := func(seed int64) []byte {
		g, err := synthGraph(seed)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := g.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(graph(5), graph(5)) {
		t.Fatal("solve-collective: the same seed gave different networks")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, perMille, beyond int }{
		{5, 500, 2},        // too few samples for any tail: the median, with its count
		{20, 500, 10},      // p75 would leave 5 beyond
		{100, 900, 10},     // p95 would leave 5
		{199, 900, 19},     // p95 would leave 9
		{200, 950, 10},     // p95 just qualifies
		{1000, 990, 10},    // p99
		{3260, 990, 32},    // p99.9 would leave 3
		{10000, 999, 10},   // p99.9
		{123456, 999, 123}, // never above p99.9
	} {
		pm, beyond := tailPercentile(tc.n)
		if pm != tc.perMille || beyond != tc.beyond {
			t.Errorf("tailPercentile(%d) = p%v with %d beyond, want p%v with %d", tc.n, float64(pm)/10, beyond, float64(tc.perMille)/10, tc.beyond)
		}
	}
	var l opLog
	for i := 100; i >= 1; i-- { // arrival order must not matter
		l.add(0, time.Duration(i)*time.Millisecond, nil)
	}
	s := l.summarize(1e6)
	if s.P50Ms != 50 || s.TailMs != 90 || s.TailPerMille != 900 || s.TailBeyond != 10 || s.Samples != 100 {
		t.Fatalf("summary of 1..100 ms = %+v, want p50 50, p90 90 with 10 beyond", s)
	}
}

func TestFailedOperationsCountAndMissLatency(t *testing.T) {
	refused, err := json.Marshal(serve.ErrorResponse{Error: "serve: admission queue full", Reason: serve.ReasonOverloaded})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkClassify(http.StatusServiceUnavailable, refused, "exact"); err == nil {
		t.Fatal("a 503 classify answer passed the check")
	}
	if _, err := checkIngest(http.StatusServiceUnavailable, refused, 2, ""); err == nil {
		t.Fatal("a 503 ingest answer passed the check")
	}
	dup, _ := json.Marshal(serve.IngestResponse{Seq: 2, Sealed: true, Duplicate: true})
	if _, err := checkIngest(http.StatusOK, dup, 2, ""); err == nil {
		t.Fatal("a duplicate ingest answer passed the check")
	}
	gap, _ := json.Marshal(serve.IngestResponse{Seq: 4, Sealed: true})
	if _, err := checkIngest(http.StatusOK, gap, 3, ""); err == nil {
		t.Fatal("a non-contiguous seq passed the check")
	}
	bad := &serve.ClassifyResponse{Scores: []float64{0.5, 0.5}, Links: []serve.LinkScore{{Relation: 0, Score: 1}}}
	if err := sameColumn(bad, tmark.ColumnResult{X: []float64{0.5, math.Nextafter(0.5, 1)}, Z: []float64{1}}); err == nil {
		t.Fatal("a one-ulp score difference passed the bitwise check")
	}

	// Three operations of 10 ms: one refused while the phase ran, one
	// failing a check afterwards. Both count as failed and as infinitely
	// slow, so the median moves from 10 ms to the phase length.
	_, refusal := checkClassify(http.StatusServiceUnavailable, refused, "exact")
	w := &fakeWorkload{
		lat:   []time.Duration{10, 10, 10},
		errs:  []error{nil, refusal, nil},
		fails: []opFailure{{2, errors.New("x differs")}},
	}
	for i := range w.lat {
		w.lat[i] *= time.Millisecond
	}
	res, info, err := runWorkload(w, 1, 1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 3 || res.Failed != 2 || info["failed_ratio"] != 2.0/3 {
		t.Fatalf("result %+v, failed_ratio %v: want 2 of 3 failed", res, info["failed_ratio"])
	}
	if got := res.Metrics["ok_ratio"].Value; math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("ok_ratio %v, want 1/3", got)
	}
	if p50 := res.Metrics["latency_p50_ms"].Value; p50 != 1000 {
		t.Fatalf("p50 %v ms: a failed operation must count as missing any latency limit (the 1000 ms phase length)", p50)
	}

	// The command exits non-zero, after printing a result that says so.
	workloads["fake-failing"] = func(string) workload { return w }
	defer delete(workloads, "fake-failing")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "fake-failing", "--seconds", "1"}, &stdout, &stderr); code == 0 {
		t.Fatal("a failed check exited 0")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct || last.Failed != 2 {
		t.Fatalf("last line %q: want correct=false with 2 failed (%v)", lines[len(lines)-1], err)
	}
}

func TestPeakRSSReadBeforeChecks(t *testing.T) {
	var order []string
	w := &fakeWorkload{lat: []time.Duration{time.Millisecond}, errs: []error{nil}, onCheck: func() { order = append(order, "check") }}
	defer func(old func() (float64, error)) { peakRSS = old }(peakRSS)
	peakRSS = func() (float64, error) {
		order = append(order, "rss")
		return 1, nil
	}
	if _, _, err := runWorkload(w, 1, 1, false, ""); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "rss,check" {
		t.Fatalf("driver order %s: rss_peak_mb must be read before the checks build their reference models", got)
	}
}

// fakeWorkload replays canned operations through the driver.
type fakeWorkload struct {
	lat     []time.Duration
	errs    []error
	fails   []opFailure
	onCheck func()
}

func (w *fakeWorkload) prepare(int64, int) error      { return nil }
func (w *fakeWorkload) setup() (time.Duration, error) { return time.Millisecond, nil }
func (w *fakeWorkload) measure(int, *tracer) (*phase, error) {
	p := &phase{wall: time.Second}
	for i, d := range w.lat {
		p.ops.add(0, d, w.errs[i])
	}
	return p, nil
}
func (w *fakeWorkload) check(*phase) ([]opFailure, error) {
	if w.onCheck != nil {
		w.onCheck()
	}
	return w.fails, nil
}
func (w *fakeWorkload) layers(*phase, *tracer) (map[string]float64, error) { return zeroLayers(), nil }
func (w *fakeWorkload) close()                                             {}

// TestOfflineRebuildMatchesEngine pins the ingest-live check: the
// offline reference graph, after the generated batches, compiles to the
// content hash the stream engine seals — and without batches to the
// source graph's own.
func TestOfflineRebuildMatchesEngine(t *testing.T) {
	dc := dataset.DefaultDBLPConfig(9)
	dc.AuthorsPerArea = 40
	g := dataset.DBLP(dc)
	cfg := benchConfig()
	_, base, err := artifact.Compile(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, h, err := artifact.Compile(newRefGraph(g).build(), cfg); err != nil || h != base {
		t.Fatalf("untouched reference graph compiles to %s, source graph to %s (%v)", h, base, err)
	}
	batches := genBatches(rand.New(rand.NewSource(9)), g, 12)
	eng, err := stream.NewEngine("t", g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefGraph(g)
	for i, batch := range batches {
		if _, err := eng.Apply(context.Background(), batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for _, d := range batch {
			ref.apply(d)
		}
	}
	_, h, err := artifact.Compile(ref.build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h != eng.Current().Hash {
		t.Fatalf("offline rebuild %s, engine sealed %s", h, eng.Current().Hash)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	check := func(kind string, declared []string, declaredUnits []string, emitted []string) {
		if strings.Join(declared, ",") != strings.Join(emitted, ",") {
			t.Errorf("%s: BENCHMARK.json declares %v, the program emits %v", kind, declared, emitted)
		}
		for i, name := range declared {
			if i < len(declaredUnits) && units[name] != declaredUnits[i] {
				t.Errorf("%s: unit of %s is %q in BENCHMARK.json, %q in the program", kind, name, declaredUnits[i], units[name])
			}
		}
	}
	var e2e, e2eUnits, layer, layerUnits []string
	for _, m := range spec.EndToEnd {
		e2e, e2eUnits = append(e2e, m.Name), append(e2eUnits, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer, layerUnits = append(layer, m.Name), append(layerUnits, m.Unit)
	}
	check("end_to_end", e2e, e2eUnits, endToEndMetrics)
	check("per_layer", layer, layerUnits, perLayerMetrics)
}
