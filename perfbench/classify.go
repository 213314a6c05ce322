package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tmark/internal/dataset"
	"tmark/internal/hin"
	"tmark/internal/obs"
	"tmark/internal/serve"
	"tmark/internal/tmark"
)

// classify-coalesced: 16 closed-loop callers post distinct /v1/classify
// queries to a serve.Server over a DBLP network of 4000 authors. With
// 16 callers waiting, at least 8 queries are always queued, so every
// batch runs at the coalescer's MaxBatch of 8.
const (
	classifyAuthorsPerArea = 1000
	classifyCallers        = 16
	seedsPerQuery          = 8
	// queriesPerSecond bounds the generated stream: four times the
	// throughput measured on a 2-core box, so a faster program does not
	// run out of queries.
	queriesPerSecond = 1000
	warmupQueries    = 64
	// recordedQueries is the prefix of the stream whose responses are
	// kept for the checks and replays; every run answers at least this
	// many, so counts taken over it repeat exactly for a seed.
	recordedQueries = 256
	checkedQueries  = 16
	// replayQueries is the prefix replayed through SolveColumns for the
	// per-iteration cost and the worker speed-up.
	replayQueries = 64
)

// classifyQuery is one generated request and its wire form.
type classifyQuery struct {
	req  serve.ClassifyRequest
	body []byte
}

// columnQuery is the solver form of q.
func (q classifyQuery) columnQuery() tmark.ColumnQuery {
	quality, _ := tmark.ParseQuality(q.req.Quality)
	return tmark.ColumnQuery{Seeds: q.req.Seeds, ICA: q.req.ICA, Quality: quality}
}

// genQueries draws count distinct queries: each picks a class, then
// seedsPerQuery distinct nodes of it (class c owns nodes
// [c·perClass, (c+1)·perClass)). With mix set the tier is drawn as 60 %
// exact, 20 % accelerated, 10 % fast and 10 % exact with ICA; otherwise
// every query is exact. Queries whose index is in scores ask for the
// full score vector.
func genQueries(rng *rand.Rand, count, classes, perClass int, mix bool, scores map[int]bool) []classifyQuery {
	out := make([]classifyQuery, 0, count)
	seen := make(map[string]bool, count)
	for len(out) < count {
		c := rng.Intn(classes)
		pick := map[int]bool{}
		seeds := make([]int, 0, seedsPerQuery)
		for len(seeds) < seedsPerQuery {
			v := c*perClass + rng.Intn(perClass)
			if !pick[v] {
				pick[v] = true
				seeds = append(seeds, v)
			}
		}
		sort.Ints(seeds)
		req := serve.ClassifyRequest{Seeds: seeds, Quality: "exact"}
		if mix {
			switch r := rng.Float64(); {
			case r < 0.6:
			case r < 0.8:
				req.Quality = "accelerated"
			case r < 0.9:
				req.Quality = "fast"
			default:
				req.ICA = true
			}
		}
		key := fmt.Sprint(seeds, req.Quality, req.ICA)
		if seen[key] {
			continue
		}
		seen[key] = true
		req.Scores = scores[len(out)]
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a plain struct of ints, bools and strings always encodes
		}
		out = append(out, classifyQuery{req: req, body: body})
	}
	return out
}

// checkClassify vets one /v1/classify answer: a 200 whose solve ran to
// the end at the requested tier. Anything else — a refusal (503)
// included — fails the operation.
func checkClassify(status int, body []byte, wantQuality string) (*serve.ClassifyResponse, error) {
	if status != http.StatusOK {
		if len(body) > 200 {
			body = body[:200]
		}
		return nil, fmt.Errorf("classify: status %d: %s", status, body)
	}
	var r serve.ClassifyResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("classify: decode response: %w", err)
	}
	if r.Stopped != "" {
		return nil, fmt.Errorf("classify: solve stopped: %s", r.Stopped)
	}
	if wantQuality != "" && r.Quality != wantQuality {
		return nil, fmt.Errorf("classify: answered at tier %q, asked for %q", r.Quality, wantQuality)
	}
	return &r, nil
}

// sameColumn reports whether a served answer carries exactly the bits
// of a reference solve: the full score vector x and the link-type
// distribution z.
func sameColumn(ans *serve.ClassifyResponse, ref tmark.ColumnResult) error {
	if len(ans.Scores) != len(ref.X) {
		return fmt.Errorf("served %d scores, reference has %d", len(ans.Scores), len(ref.X))
	}
	for i, v := range ans.Scores {
		if math.Float64bits(v) != math.Float64bits(ref.X[i]) {
			return fmt.Errorf("x[%d] = %v served, %v reference", i, v, ref.X[i])
		}
	}
	if len(ans.Links) != len(ref.Z) {
		return fmt.Errorf("served %d link scores, reference has %d", len(ans.Links), len(ref.Z))
	}
	for _, l := range ans.Links {
		if l.Relation < 0 || l.Relation >= len(ref.Z) || math.Float64bits(l.Score) != math.Float64bits(ref.Z[l.Relation]) {
			return fmt.Errorf("z[%d] = %v served, reference differs", l.Relation, l.Score)
		}
	}
	return nil
}

type classifyWorkload struct {
	g       *hin.Graph
	cfg     tmark.Config
	first   []byte // the set-up query
	warm    []classifyQuery
	stream  []classifyQuery
	checked []int // stream indices replayed bitwise by check

	srv *serve.Server
	reg *obs.Registry
	rec *classifyRecord // the last measured phase
	ref *tmark.Model    // check's independently built model
}

// classifyRecord keeps what the checks and replays need from a phase.
type classifyRecord struct {
	answers  []*serve.ClassifyResponse // per stream index < recordedQueries
	raw      [][]byte
	counters serveCounters
	blobs    int
}

func (w *classifyWorkload) prepare(seed int64, seconds int) error {
	dc := dataset.DefaultDBLPConfig(networkSeed)
	dc.AuthorsPerArea = classifyAuthorsPerArea
	w.g = dataset.DBLP(dc)
	w.cfg = benchConfig()
	w.warm, w.stream, w.checked = classifyStreams(seed, seconds)
	w.first = w.warm[0].body
	return nil
}

// classifyStreams derives the warm-up queries, the measured stream and
// the checked sample from the seed.
func classifyStreams(seed int64, seconds int) (warm, stream []classifyQuery, checked []int) {
	rng := rand.New(rand.NewSource(seed))
	checked = rng.Perm(recordedQueries)[:checkedQueries]
	sort.Ints(checked)
	scores := map[int]bool{}
	for _, i := range checked {
		scores[i] = true
	}
	warm = genQueries(rng, warmupQueries, len(dataset.DBLPAreas), classifyAuthorsPerArea, true, nil)
	stream = genQueries(rng, queriesPerSecond*seconds+recordedQueries, len(dataset.DBLPAreas), classifyAuthorsPerArea, true, scores)
	return warm, stream, checked
}

// setup times serve.New until the first classify is answered: the raw
// model build from the graph is part of it.
func (w *classifyWorkload) setup() (time.Duration, error) {
	w.close()
	reg := obs.NewRegistry()
	start := time.Now()
	srv, err := serve.New(serve.Options{Datasets: map[string]*hin.Graph{"dblp": w.g}, Config: w.cfg, Registry: reg})
	if err != nil {
		return 0, err
	}
	status, body := post(srv.Handler(), "/v1/classify", w.first, nil)
	d := time.Since(start)
	if _, err := checkClassify(status, body, ""); err != nil {
		srv.Drain()
		return 0, err
	}
	w.srv, w.reg = srv, reg
	return d, nil
}

func (w *classifyWorkload) measure(seconds int, tr *tracer) (*phase, error) {
	h := w.srv.Handler()
	// Warm-up: fill the coalescer's queue and the allocator once,
	// untimed.
	if err := callers(classifyCallers, len(w.warm), time.Time{}, func(i int) error {
		status, body := post(h, "/v1/classify", w.warm[i].body, nil)
		_, err := checkClassify(status, body, w.warm[i].req.Quality)
		return err
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	before := readServeCounters(w.reg)
	starts := make([]time.Duration, len(w.stream))
	durs := make([]time.Duration, len(w.stream))
	errs := make([]error, len(w.stream))
	rec := &classifyRecord{
		answers: make([]*serve.ClassifyResponse, recordedQueries),
		raw:     make([][]byte, recordedQueries),
	}
	start := time.Now()
	var n atomic.Int64
	_ = callers(classifyCallers, len(w.stream), start.Add(time.Duration(seconds)*time.Second), func(i int) error {
		q := w.stream[i]
		var status int
		var body []byte
		starts[i] = time.Since(start)
		durs[i] = tr.do("serve.classify", 0, int64(i), func() { status, body = post(h, "/v1/classify", q.body, nil) })
		ans, err := checkClassify(status, body, q.req.Quality)
		errs[i] = err
		if i < recordedQueries && err == nil {
			rec.answers[i], rec.raw[i] = ans, body
		}
		n.Add(1)
		return nil
	})
	p := &phase{wall: time.Since(start)}
	for i := 0; i < int(n.Load()); i++ {
		p.ops.add(starts[i], durs[i], errs[i])
	}
	rec.counters = readServeCounters(w.reg).since(before)
	var err error
	if rec.blobs, err = mappedBlobs(); err != nil {
		return nil, err
	}
	w.rec = rec
	p.info = map[string]any{
		"queries":          n.Load(),
		"batch_width_mean": rec.counters.widthMean(),
		"stream_exhausted": int(n.Load()) == len(w.stream),
	}
	return p, nil
}

// callers runs fn over indices 0, 1, 2, … from k goroutines, each
// taking the next index once its previous call returned (a closed
// loop), until count indices are taken or the deadline (if set) has
// passed. Indices are taken in order, so the ones run are always a
// prefix. It returns the first error fn returned.
func callers(k, count int, deadline time.Time, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for c := 0; c < k; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { first = err })
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// check replays the sampled answered queries through SolveColumn on an
// independently built model and requires bitwise-equal x and z — a
// coalesced, mixed-tier batch must give the same bits as a solo solve.
func (w *classifyWorkload) check(*phase) ([]opFailure, error) {
	m, err := tmark.New(w.g, w.cfg)
	if err != nil {
		return nil, err
	}
	w.ref = m
	var fails []opFailure
	for _, i := range w.checked {
		ans := w.rec.answers[i]
		if ans == nil {
			continue // not answered (already failed) or not issued
		}
		ref, err := m.SolveColumn(context.Background(), w.stream[i].columnQuery())
		if err == nil {
			err = sameColumn(ans, ref)
		}
		if err != nil {
			fails = append(fails, opFailure{i, fmt.Errorf("query %d: %w", i, err)})
		}
	}
	return fails, nil
}

func (w *classifyWorkload) layers(p *phase, tr *tracer) (map[string]float64, error) {
	out := zeroLayers()
	c := w.rec.counters
	out["serve.batch_width_mean"] = c.widthMean()
	out["serve.batch_solve_ms"] = c.batchSolveMs()
	out["serve.rejected"] = float64(c.rejected)
	codecUs, err := codecReplay(w.stream, w.rec.raw, tr)
	if err != nil {
		return nil, err
	}
	out["serve.codec_us"] = codecUs
	out["serve.queue_wait_ms"] = meanFinite(p.ops.lat) - c.batchSolveMs() - codecUs/1000
	out["artifact.mapped_blobs"] = float64(w.rec.blobs)

	var iters, saved []float64
	for i, ans := range w.rec.answers {
		if ans == nil {
			continue
		}
		iters = append(iters, float64(ans.Iterations))
		if w.stream[i].req.Quality != "accelerated" {
			continue
		}
		q := w.stream[i].columnQuery()
		q.Quality = tmark.QualityExact
		var ref tmark.ColumnResult
		tr.do("tmark.solve_column_exact", 0, int64(i), func() { ref, err = w.ref.SolveColumn(context.Background(), q) })
		if err != nil {
			return nil, err
		}
		saved = append(saved, float64(ref.Iterations-ans.Iterations))
	}
	out["tmark.iterations"] = mean(iters)
	out["accel.iterations_saved"] = mean(saved)

	width := int(math.Round(c.widthMean()))
	qs := make([]tmark.ColumnQuery, 0, replayQueries)
	for _, q := range w.stream[:replayQueries] {
		qs = append(qs, q.columnQuery())
	}
	msPerIter, speedup, err := solveColumnsReplay(w.ref, qs, width, tr)
	if err != nil {
		return nil, err
	}
	out["tmark.ms_per_iteration"], out["par.speedup_x"] = msPerIter, speedup
	for k, v := range kernelReplays(w.ref.Substrate(), width, tr) {
		out[k] = v
	}
	for k, v := range buildReplays(w.g, w.cfg, tr) {
		out[k] = v
	}
	return out, nil
}

// codecReplay times the handler's wire work on the recorded queries:
// decoding each request body and encoding its response, in µs (median
// over the recorded queries).
func codecReplay(stream []classifyQuery, raw [][]byte, tr *tracer) (float64, error) {
	var us []float64
	for i, body := range raw {
		if body == nil {
			continue
		}
		var resp serve.ClassifyResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, err
		}
		var derr, eerr error
		d := tr.do("serve.decode_request", 0, int64(i), func() {
			_, derr = serve.DecodeClassifyRequest(bytes.NewReader(stream[i].body))
		})
		d += tr.do("serve.encode_response", 0, int64(i), func() { eerr = json.NewEncoder(io.Discard).Encode(&resp) })
		if derr != nil || eerr != nil {
			return 0, fmt.Errorf("codec replay of query %d: %v %v", i, derr, eerr)
		}
		us = append(us, float64(d)/float64(time.Microsecond))
	}
	if len(us) == 0 {
		return 0, nil
	}
	return median(us), nil
}

// solveColumnsReplay solves qs through Model.SolveColumns in batches of
// width, once at the default worker count and once with one worker. It
// returns the default run's wall time per lockstep iteration (the
// widest column's iteration count per batch) and the one-worker wall
// time over the default's.
func solveColumnsReplay(m *tmark.Model, qs []tmark.ColumnQuery, width int, tr *tracer) (msPerIter, speedup float64, err error) {
	width = max(1, min(width, serve.DefaultMaxBatch))
	pass := func(name string, opts ...tmark.RunOption) (time.Duration, int, error) {
		var wall time.Duration
		steps := 0
		for lo := 0; lo < len(qs); lo += width {
			batch := qs[lo:min(lo+width, len(qs))]
			var res []tmark.ColumnResult
			var err error
			wall += tr.do(name, 0, int64(lo), func() { res, err = m.SolveColumns(context.Background(), batch, opts...) })
			if err != nil {
				return 0, 0, err
			}
			most := 0
			for _, r := range res {
				most = max(most, r.Iterations)
			}
			steps += most
		}
		return wall, steps, nil
	}
	def, steps, err := pass("tmark.solve_columns")
	if err != nil {
		return 0, 0, err
	}
	one, _, err := pass("tmark.solve_columns_workers1", tmark.WithWorkers(1))
	if err != nil {
		return 0, 0, err
	}
	return float64(def) / float64(time.Millisecond) / float64(max(steps, 1)), float64(one) / float64(def), nil
}

// meanFinite is the mean of the finite values of vals.
func meanFinite(vals []float64) float64 {
	var fin []float64
	for _, v := range vals {
		if !math.IsInf(v, 0) {
			fin = append(fin, v)
		}
	}
	return mean(fin)
}

func (w *classifyWorkload) close() {
	if w.srv != nil {
		w.srv.Drain()
		w.srv = nil
	}
}
